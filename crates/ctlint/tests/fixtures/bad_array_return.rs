//! R1 fixture: a secret branch inside a fn whose return type is an array.
//! The `;` of `[u64; 2]` must not read as the end of a signature.

// ct: secret(k)
pub fn leak_array_return(k: u64) -> [u64; 2] {
    if k > 0 {
        [1, 0]
    } else {
        [0, 1]
    }
}
