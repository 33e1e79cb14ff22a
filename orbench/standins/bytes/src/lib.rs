//! Offline stand-in for `bytes`: [`Bytes`], an immutable byte buffer
//! whose clones share one allocation. `copy_from_slice` costs one
//! allocation and `clone` none, like the published crate; `From<Vec<u8>>`
//! copies (the published crate adopts the vector's buffer).

use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Self(Repr::Static(&[]))
    }

    /// Wraps a static slice (no allocation).
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Self(Repr::Static(bytes))
    }

    /// Copies `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Repr::Shared(Arc::from(data)))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_ref().is_empty()
    }

    /// The contents as a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(bytes) => bytes,
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self(Repr::Shared(Arc::from(data)))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Self {
        Self::from_static(data)
    }
}

impl From<&'static str> for Bytes {
    fn from(data: &'static str) -> Self {
        Self::from_static(data.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.as_ref().escape_ascii())
    }
}
