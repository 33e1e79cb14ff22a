//! Domain names: labels, validation, and wire encoding with compression.

use std::fmt;
use std::str::FromStr;

use crate::error::WireError;
use crate::wire::{Reader, Writer};

/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub(crate) const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label (RFC 1035 §2.3.4).
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Hop limit when following compression pointers; RFC 1035 names can have
/// at most 127 labels, so any legitimate chain is far shorter.
const MAX_POINTER_HOPS: usize = 64;

/// Label data (length-prefixed labels, no trailing root byte) fits in
/// `MAX_NAME_LEN - 1` bytes.
const MAX_DATA: usize = MAX_NAME_LEN - 1;
/// Label data held inside the value: what keeps a `Name` at 64 bytes
/// beside its counts and the heap pointer. Every name the scan builds
/// (a probe qname carries 34 label bytes) fits.
const INLINE_CAP: usize = 54;
/// A name has at most 127 labels (each costs ≥ 2 wire bytes).
const MAX_LABELS: usize = 127;

/// A fully-qualified domain name, stored as a sequence of labels.
///
/// Labels are kept length-prefixed, like the wire format but without
/// the root byte. Up to 54 bytes of them live inline, so constructing,
/// cloning and decoding such a name never touches the heap and the
/// value is 64 bytes; a longer name (legal up to the 255-octet wire
/// maximum) moves its labels to one heap buffer.
///
/// Comparison and hashing are ASCII case-insensitive, as required by
/// RFC 1035 §2.3.3; the original spelling is preserved for display.
///
/// # Example
///
/// ```
/// use orscope_dns_wire::Name;
///
/// let a: Name = "WWW.Example.COM".parse()?;
/// let b: Name = "www.example.com".parse()?;
/// assert_eq!(a, b);
/// assert_eq!(a.label_count(), 3);
/// assert!(a.is_subdomain_of(&"example.com".parse()?));
/// # Ok::<(), orscope_dns_wire::ParseNameError>(())
/// ```
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed labels in wire order (`3www7example3com` for
    /// `www.example.com`), without the trailing root byte, while they
    /// fit; bytes past `len` are never read.
    inline: [u8; INLINE_CAP],
    /// The labels of a name longer than `INLINE_CAP`, and `None`
    /// exactly when they fit inline.
    spilled: Option<Box<[u8; MAX_DATA]>>,
    /// Bytes of label data.
    len: u8,
    /// Number of labels.
    count: u8,
}

impl Default for Name {
    fn default() -> Self {
        Self::root()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name(\"{self}\")")
    }
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Self {
            inline: [0; INLINE_CAP],
            spilled: None,
            len: 0,
            count: 0,
        }
    }

    /// Builds a name from label byte-strings.
    ///
    /// # Errors
    ///
    /// Returns an error if any label is empty or longer than 63 bytes, or
    /// if the total wire length would exceed 255 bytes.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, ParseNameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = Self::root();
        let mut len = 0usize;
        let mut count = 0usize;
        let mut wire_len = 1usize; // trailing root byte
        for label in labels {
            let label = label.as_ref();
            if label.is_empty() {
                return Err(ParseNameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(ParseNameError::LabelTooLong(label.len()));
            }
            wire_len += 1 + label.len();
            // Keep accumulating the would-be length past the cap so the
            // error reports the full figure, but stop writing.
            if wire_len <= MAX_NAME_LEN {
                out.write_label(len, label);
                len += 1 + label.len();
                count += 1;
            }
        }
        if wire_len > MAX_NAME_LEN {
            return Err(ParseNameError::NameTooLong(wire_len));
        }
        out.len = len as u8;
        out.count = count as u8;
        Ok(out)
    }

    /// The label data in wire layout (length-prefixed, no root byte).
    #[inline]
    fn data(&self) -> &[u8] {
        let len = self.len as usize;
        match &self.spilled {
            None => &self.inline[..len],
            Some(heap) => &heap[..len],
        }
    }

    /// Writes `label`, length byte first, at byte `at` of the label
    /// data: the one place label bytes are stored. The first write that
    /// would end past the inline buffer moves the labels so far to the
    /// heap; the caller sets `len` once the name is complete.
    fn write_label(&mut self, at: usize, label: &[u8]) {
        let end = at + 1 + label.len();
        if end > INLINE_CAP && self.spilled.is_none() {
            let mut heap = Box::new([0; MAX_DATA]);
            heap[..at].copy_from_slice(&self.inline[..at]);
            self.spilled = Some(heap);
        }
        let buf = match &mut self.spilled {
            None => &mut self.inline[..],
            Some(heap) => &mut heap[..],
        };
        buf[at] = label.len() as u8;
        buf[at + 1..end].copy_from_slice(label);
    }

    /// Byte offsets (into [`Name::data`]) where each label starts.
    fn label_offsets(&self) -> ([u8; MAX_LABELS], usize) {
        let mut offsets = [0u8; MAX_LABELS];
        let mut n = 0usize;
        let data = self.data();
        let mut pos = 0usize;
        while pos < data.len() {
            offsets[n] = pos as u8;
            n += 1;
            pos += 1 + data[pos] as usize;
        }
        (offsets, n)
    }

    /// The label starting at byte `offset` of [`Name::data`].
    #[inline]
    fn label_at(&self, offset: u8) -> &[u8] {
        let data = self.data();
        let pos = offset as usize;
        let len = data[pos] as usize;
        &data[pos + 1..pos + 1 + len]
    }

    /// Whether this is the root name.
    pub(crate) fn is_root(&self) -> bool {
        self.count == 0
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.count as usize
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        LabelIter { rest: self.data() }
    }

    /// Length of the uncompressed wire encoding, including the root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.len as usize
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        if ancestor.count > self.count || ancestor.len > self.len {
            return false;
        }
        // Skip the labels `self` has beyond the ancestor's; what is left
        // starts at a label boundary and must be the ancestor, compared
        // as `PartialEq` compares whole names.
        let data = self.data();
        let mut start = 0usize;
        for _ in ancestor.count..self.count {
            start += 1 + data[start] as usize;
        }
        let suffix = &data[start..];
        suffix.len() == ancestor.data().len()
            && suffix
                .iter()
                .zip(ancestor.data())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    /// The name with its leftmost label removed (`www.example.com` ->
    /// `example.com`); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.count == 0 {
            return None;
        }
        let mut out = Self::root();
        let mut len = 0usize;
        for label in self.labels().skip(1) {
            out.write_label(len, label);
            len += 1 + label.len();
        }
        out.len = len as u8;
        out.count = self.count - 1;
        Some(out)
    }

    /// Prepends a label (`example.com` + `www` -> `www.example.com`).
    ///
    /// # Errors
    ///
    /// Same validation as [`Name::from_labels`].
    pub fn prepend(&self, label: &str) -> Result<Name, ParseNameError> {
        Name::from_labels(std::iter::once(label.as_bytes()).chain(self.labels()))
    }

    /// Encodes the name, using message compression when the writer allows.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        let data = self.data();
        let mut pos = 0usize;
        // Try to compress each suffix against names already emitted,
        // registering the offsets of the suffixes we write out.
        while pos < data.len() {
            if let Some(target) = find_compression_target(w, &data[pos..]) {
                w.write_u16(0xC000 | target);
                return Ok(());
            }
            let offset = w.len();
            w.register_compression_offset(offset);
            let label_len = data[pos] as usize;
            w.write_slice(&data[pos..pos + 1 + label_len]);
            pos += 1 + label_len;
        }
        w.write_u8(0); // root
        Ok(())
    }

    /// Decodes a possibly-compressed name from the reader.
    ///
    /// The reader is left positioned after the name *in the original
    /// stream* (i.e. after the first pointer, if any).
    ///
    /// # Errors
    ///
    /// Reports truncation, reserved label types, malicious pointer chains
    /// (forward pointers or loops) and length violations distinctly.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Self::root();
        out.decode_into(r)?;
        Ok(out)
    }

    /// [`Name::decode`] over an existing name: the labels are written
    /// straight into `self`'s inline buffer, so a caller that keeps the
    /// slot pays neither a zero fill nor the move of a fresh value, and
    /// an inline name allocates nothing. Bytes of the previous name past
    /// the new length are never read again, and a heap buffer the
    /// previous name spilled to is freed. On error `self` is the root
    /// name.
    ///
    /// # Errors
    ///
    /// Same as [`Name::decode`].
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.spilled = None;
        self.len = 0;
        self.count = 0;
        match self.read_labels(r) {
            Ok((len, count)) => {
                self.len = len as u8;
                self.count = count as u8;
                Ok(())
            }
            Err(err) => {
                self.spilled = None;
                Err(err)
            }
        }
    }

    /// The label loop of [`Name::decode_into`]: stores the labels and
    /// returns their byte length and count.
    fn read_labels(&mut self, r: &mut Reader<'_>) -> Result<(usize, usize), WireError> {
        let mut len = 0usize;
        let mut count = 0usize;
        let mut wire_len = 1usize;
        let mut hops = 0usize;
        // Position to restore after the first pointer jump.
        let mut resume: Option<usize> = None;
        loop {
            let offset = r.position();
            let byte = r.read_u8("name label length")?;
            match byte {
                0 => break,
                l if l & 0xC0 == 0xC0 => {
                    let lo = r.read_u8("compression pointer")?;
                    let target = ((l as usize & 0x3F) << 8) | lo as usize;
                    // Pointers must point strictly backwards to prevent
                    // loops (RFC 1035 intends "prior occurrence").
                    if target >= offset {
                        return Err(WireError::BadCompressionPointer { target, offset });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadCompressionPointer { target, offset });
                    }
                    if resume.is_none() {
                        resume = Some(r.position());
                    }
                    r.seek(target);
                }
                l if l & 0xC0 != 0 => {
                    return Err(WireError::BadLabelType { byte: l, offset });
                }
                l => {
                    let label = r.read_slice(l as usize, "name label")?;
                    wire_len += 1 + label.len();
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    self.write_label(len, label);
                    len += 1 + label.len();
                    count += 1;
                }
            }
        }
        if let Some(pos) = resume {
            r.seek(pos);
        }
        Ok((len, count))
    }
}

struct LabelIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let len = self.rest[0] as usize;
        let label = &self.rest[1..1 + len];
        self.rest = &self.rest[1 + len..];
        Some(label)
    }
}

/// ASCII case-insensitive label equality.
fn eq_label(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

/// Scans the writer's registered name offsets for one whose encoding
/// equals `suffix` (length-prefixed labels, no root byte), ASCII
/// case-insensitively. First registration wins, matching the emission
/// order the old map-based scheme produced.
fn find_compression_target(w: &Writer, suffix: &[u8]) -> Option<u16> {
    let buf = w.bytes();
    w.compression_targets()
        .iter()
        .copied()
        .find(|&target| name_at_matches(buf, target as usize, suffix))
}

/// Whether the (possibly compressed) name encoded at `pos` in `buf`
/// equals `suffix`, following pointers as a decoder would.
fn name_at_matches(buf: &[u8], mut pos: usize, suffix: &[u8]) -> bool {
    let mut s = 0usize;
    let mut hops = 0usize;
    loop {
        // Follow any chain of (strictly backward) pointers.
        while pos + 1 < buf.len() && buf[pos] & 0xC0 == 0xC0 {
            let target = ((buf[pos] as usize & 0x3F) << 8) | buf[pos + 1] as usize;
            if target >= pos {
                return false;
            }
            hops += 1;
            if hops > MAX_POINTER_HOPS {
                return false;
            }
            pos = target;
        }
        let Some(&len) = buf.get(pos) else {
            return false;
        };
        if s == suffix.len() {
            // Our suffix is exhausted: the emitted name must end here too.
            return len == 0;
        }
        let want = suffix[s] as usize;
        if len as usize != want || pos + 1 + want > buf.len() {
            return false;
        }
        if !eq_label(&buf[pos + 1..pos + 1 + want], &suffix[s + 1..s + 1 + want]) {
            return false;
        }
        pos += 1 + want;
        s += 1 + want;
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Length bytes are ≤ 63 and thus below every ASCII letter, so a
        // case-insensitive sweep over the raw layout compares label
        // boundaries exactly and label bytes case-insensitively.
        self.len == other.len
            && self
                .data()
                .iter()
                .zip(other.data())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for label in self.labels() {
            for b in label {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(0);
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right-to-left,
    /// case-insensitively (RFC 4034 §6.1 style).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (self_offsets, self_n) = self.label_offsets();
        let (other_offsets, other_n) = other.label_offsets();
        for k in 0..self_n.min(other_n) {
            let a = self.label_at(self_offsets[self_n - 1 - k]);
            let b = other.label_at(other_offsets[other_n - 1 - k]);
            let ord = cmp_label_ci(a, b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self_n.cmp(&other_n)
    }
}

/// ASCII case-insensitive lexicographic label comparison.
fn cmp_label_ci(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.to_ascii_lowercase().cmp(&y.to_ascii_lowercase());
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in label {
                // Escape dots and non-printables inside labels.
                match b {
                    b'.' => write!(f, "\\.")?,
                    0x21..=0x7E => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{:03}", b)?,
                }
            }
        }
        Ok(())
    }
}

/// Error parsing a domain name from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNameError {
    /// A label was empty (e.g. `a..b`).
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong(usize),
    /// The whole name exceeded 255 wire bytes.
    NameTooLong(usize),
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::EmptyLabel => write!(f, "empty label in domain name"),
            ParseNameError::LabelTooLong(n) => write!(f, "label of {n} bytes exceeds 63"),
            ParseNameError::NameTooLong(n) => write!(f, "name of {n} wire bytes exceeds 255"),
        }
    }
}

impl std::error::Error for ParseNameError {}

impl FromStr for Name {
    type Err = ParseNameError;

    /// Parses dotted notation; a single trailing dot is allowed and `"."`
    /// or `""` denote the root.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.').map(str::as_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(name("www.example.com").to_string(), "www.example.com");
        assert_eq!(name("example.com.").to_string(), "example.com");
        assert_eq!(name(".").to_string(), ".");
        assert_eq!(name("").to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(name("Example.COM"));
        assert!(set.contains(&name("example.com")));
        assert_eq!(name("A.B"), name("a.b"));
        assert_ne!(name("a.b"), name("a.c"));
    }

    #[test]
    fn rejects_invalid_labels() {
        assert_eq!("a..b".parse::<Name>(), Err(ParseNameError::EmptyLabel));
        let long = "x".repeat(64);
        assert!(matches!(
            long.parse::<Name>(),
            Err(ParseNameError::LabelTooLong(64))
        ));
        let huge = vec!["abcdefgh"; 30].join(".");
        assert!(matches!(
            huge.parse::<Name>(),
            Err(ParseNameError::NameTooLong(_))
        ));
    }

    #[test]
    fn max_length_name_roundtrips() {
        // 3 × 63-byte labels + 1 × 61-byte label: wire_len = 255 exactly.
        let labels: Vec<String> = (0..3)
            .map(|i| format!("{i}").repeat(63))
            .chain(std::iter::once("x".repeat(61)))
            .collect();
        let n = Name::from_labels(labels.iter().map(String::as_bytes)).unwrap();
        assert_eq!(n.wire_len(), 255);
        let mut w = Writer::new();
        n.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let back = Name::decode(&mut Reader::new(&buf)).unwrap();
        assert!(back.labels().eq(n.labels()), "byte-exact labels");
    }

    #[test]
    fn subdomain_relation() {
        let zone = name("ucfsealresearch.net");
        assert!(name("or000.0000001.ucfsealresearch.net").is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&Name::root()));
        assert!(!name("example.net").is_subdomain_of(&zone));
        assert!(!name("net").is_subdomain_of(&zone));
        // Case-insensitive.
        assert!(name("A.UCFSEALRESEARCH.NET").is_subdomain_of(&zone));
    }

    #[test]
    fn parent_and_prepend() {
        let n = name("www.example.com");
        assert_eq!(n.parent().unwrap(), name("example.com"));
        assert_eq!(Name::root().parent(), None);
        assert_eq!(name("example.com").prepend("www").unwrap(), n);
    }

    #[test]
    fn wire_roundtrip_simple() {
        let n = name("or001.0004242.ucfsealresearch.net");
        let mut w = Writer::new();
        n.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), n.wire_len());
        let mut r = Reader::new(&buf);
        let back = Name::decode(&mut r).unwrap();
        assert_eq!(back, n);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn root_encodes_as_single_zero() {
        let mut w = Writer::new();
        Name::root().encode(&mut w).unwrap();
        assert_eq!(w.finish().unwrap(), vec![0]);
    }

    #[test]
    fn compression_reuses_suffix() {
        let mut w = Writer::new();
        name("www.example.com").encode(&mut w).unwrap();
        let uncompressed_len = w.len();
        name("mail.example.com").encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        // Second name: 1+4 ("mail") + 2 (pointer) = 7 bytes.
        assert_eq!(buf.len(), uncompressed_len + 7);
        let mut r = Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), name("www.example.com"));
        assert_eq!(Name::decode(&mut r).unwrap(), name("mail.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_name_compresses_to_pure_pointer() {
        let mut w = Writer::new();
        name("example.com").encode(&mut w).unwrap();
        let first = w.len();
        name("EXAMPLE.com").encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), first + 2, "case difference must still compress");
    }

    #[test]
    fn compression_matches_through_pointer_chains() {
        // Third name must compress against a suffix that is itself
        // partially encoded via a pointer.
        let mut w = Writer::new();
        name("www.example.com").encode(&mut w).unwrap();
        name("mail.example.com").encode(&mut w).unwrap();
        let before = w.len();
        name("smtp.mail.example.com").encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        // Fourth name: 1+4 ("smtp") + 2 (pointer to "mail.example.com").
        assert_eq!(buf.len(), before + 7);
        let mut r = Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), name("www.example.com"));
        assert_eq!(Name::decode(&mut r).unwrap(), name("mail.example.com"));
        assert_eq!(Name::decode(&mut r).unwrap(), name("smtp.mail.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        let err = Name::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, WireError::BadCompressionPointer { .. }));
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // offset 0: label "a"; offset 2: pointer to 4; offset 4: pointer to 2.
        // Forward pointer from 2 to 4 is rejected outright.
        let buf = [1, b'a', 0xC0, 0x04, 0xC0, 0x02];
        let mut r = Reader::new(&buf);
        let err = Name::decode(&mut r).unwrap_err();
        assert!(matches!(err, WireError::BadCompressionPointer { .. }));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        assert!(matches!(
            Name::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::BadLabelType { byte: 0x40, .. }
        ));
        let buf = [0x80, 0x00];
        assert!(matches!(
            Name::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::BadLabelType { byte: 0x80, .. }
        ));
    }

    #[test]
    fn decode_rejects_truncated_label() {
        let buf = [5, b'a', b'b'];
        assert!(matches!(
            Name::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn decode_rejects_overlong_assembled_name() {
        // Chain of valid 63-byte labels exceeding 255 total.
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.push(63);
            buf.extend(std::iter::repeat_n(b'a', 63));
        }
        buf.push(0);
        assert_eq!(
            Name::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::NameTooLong
        );
    }

    #[test]
    fn display_escapes_weird_bytes() {
        let n = Name::from_labels([&b"a.b"[..], &b"\x01"[..]]).unwrap();
        assert_eq!(n.to_string(), "a\\.b.\\001");
    }

    #[test]
    fn canonical_ordering_is_right_to_left() {
        let mut names = [name("b.com"), name("a.net"), name("a.com"), name("com")];
        names.sort();
        let strs: Vec<String> = names.iter().map(Name::to_string).collect();
        assert_eq!(strs, vec!["com", "a.com", "b.com", "a.net"]);
    }
}

#[cfg(test)]
mod reverse_tests {
    use super::*;

    impl Name {
        /// The `in-addr.arpa` reverse-lookup name for an IPv4 address
        /// (RFC 1035 §3.5): `1.2.3.4` maps to `4.3.2.1.in-addr.arpa`.
        fn reverse_pointer(addr: std::net::Ipv4Addr) -> Name {
            let [a, b, c, d] = addr.octets();
            let labels = [
                d.to_string(),
                c.to_string(),
                b.to_string(),
                a.to_string(),
                "in-addr".to_string(),
                "arpa".to_string(),
            ];
            Name::from_labels(labels).expect("octet labels are valid")
        }
    }

    #[test]
    fn reverse_pointer_construction() {
        let ptr = Name::reverse_pointer(std::net::Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(ptr.to_string(), "4.3.2.1.in-addr.arpa");
        assert!(ptr.is_subdomain_of(&"in-addr.arpa".parse().unwrap()));
        let zero = Name::reverse_pointer(std::net::Ipv4Addr::new(0, 0, 0, 0));
        assert_eq!(zero.to_string(), "0.0.0.0.in-addr.arpa");
    }

    #[test]
    fn reverse_pointer_three_digit_octets() {
        let ptr = Name::reverse_pointer(std::net::Ipv4Addr::new(208, 91, 197, 255));
        assert_eq!(ptr.to_string(), "255.197.91.208.in-addr.arpa");
    }
}
