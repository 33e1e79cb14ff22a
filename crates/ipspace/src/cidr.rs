//! CIDR block arithmetic.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR block such as `192.168.0.0/16`.
///
/// The network address is stored normalized: host bits below the prefix
/// length are forced to zero, so `Cidr::new(Ipv4Addr::new(10, 1, 2, 3), 8)`
/// represents `10.0.0.0/8`.
///
/// # Example
///
/// ```
/// use orscope_ipspace::Cidr;
/// use std::net::Ipv4Addr;
///
/// let block: Cidr = "198.18.0.0/15".parse()?;
/// assert_eq!(block.len(), 131_072);
/// assert!(block.contains(u32::from(Ipv4Addr::new(198, 19, 255, 255))));
/// assert!(!block.contains(u32::from(Ipv4Addr::new(198, 20, 0, 0))));
/// # Ok::<(), orscope_ipspace::ParseCidrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cidr {
    network: u32,
    prefix_len: u8,
}

impl Cidr {
    /// Creates a CIDR block from a network address and prefix length.
    ///
    /// Host bits of `network` below the prefix are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(network: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} exceeds 32");
        let raw = u32::from(network);
        Self {
            network: raw & Self::mask(prefix_len),
            prefix_len,
        }
    }

    /// Network mask for a prefix length (e.g. `/8` -> `0xff00_0000`).
    const fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// The (normalized) network address of the block.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// First address of the block as a raw `u32`.
    pub fn first(&self) -> u32 {
        self.network
    }

    /// Last address of the block as a raw `u32`.
    pub fn last(&self) -> u32 {
        self.network | !Self::mask(self.prefix_len)
    }

    /// Number of addresses in the block (`2^(32 - prefix_len)`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether the block contains the raw address `addr`.
    pub fn contains(&self, addr: u32) -> bool {
        addr & Self::mask(self.prefix_len) == self.network
    }

    /// Whether the two blocks share any address.
    pub fn overlaps(&self, other: &Cidr) -> bool {
        self.contains(other.network) || other.contains(self.network)
    }

    /// Iterates over every raw address in the block in ascending order.
    ///
    /// For `/0` this yields 2^32 items; callers scanning the full space
    /// should prefer [`crate::ScanPermutation`].
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (self.first() as u64..=self.last() as u64).map(|a| a as u32)
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.prefix_len)
    }
}

/// Error returned when parsing a malformed CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCidrError {
    input: String,
    reason: &'static str,
}

impl ParseCidrError {
    fn new(input: &str, reason: &'static str) -> Self {
        Self {
            input: input.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParseCidrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseCidrError {}

impl FromStr for Cidr {
    type Err = ParseCidrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = match s.split_once('/') {
            Some(parts) => parts,
            None => (s, "32"),
        };
        let addr: Ipv4Addr = addr_part
            .parse()
            .map_err(|_| ParseCidrError::new(s, "bad address"))?;
        let prefix_len: u8 = len_part
            .parse()
            .map_err(|_| ParseCidrError::new(s, "bad prefix length"))?;
        if prefix_len > 32 {
            return Err(ParseCidrError::new(s, "prefix length exceeds 32"));
        }
        Ok(Cidr::new(addr, prefix_len))
    }
}

impl From<Ipv4Addr> for Cidr {
    /// A single-address (`/32`) block.
    fn from(addr: Ipv4Addr) -> Self {
        Cidr::new(addr, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cidr {
        /// The full IPv4 space, `0.0.0.0/0`.
        const fn entire_space() -> Self {
            Self {
                network: 0,
                prefix_len: 0,
            }
        }

        /// The prefix length of the block.
        fn prefix_len(&self) -> u8 {
            self.prefix_len
        }

        /// Whether the block contains the address `addr`.
        fn contains_addr(&self, addr: Ipv4Addr) -> bool {
            self.contains(u32::from(addr))
        }

        /// Whether `other` is entirely contained in `self`.
        fn contains_block(&self, other: &Cidr) -> bool {
            other.prefix_len >= self.prefix_len && self.contains(other.network)
        }
    }

    #[test]
    fn normalizes_host_bits() {
        let c = Cidr::new(Ipv4Addr::new(10, 99, 3, 7), 8);
        assert_eq!(c.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(c.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn len_and_bounds() {
        let c: Cidr = "192.168.0.0/16".parse().unwrap();
        assert_eq!(c.len(), 65_536);
        assert_eq!(c.first(), u32::from(Ipv4Addr::new(192, 168, 0, 0)));
        assert_eq!(c.last(), u32::from(Ipv4Addr::new(192, 168, 255, 255)));
    }

    #[test]
    fn slash_zero_covers_everything() {
        let c = Cidr::entire_space();
        assert_eq!(c.len(), 1 << 32);
        assert!(c.contains(0));
        assert!(c.contains(u32::MAX));
    }

    #[test]
    fn slash_32_is_single_address() {
        let c = Cidr::from(Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(c.len(), 1);
        assert!(c.contains_addr(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(!c.contains_addr(Ipv4Addr::new(8, 8, 8, 9)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("not-an-ip/8".parse::<Cidr>().is_err());
        assert!("10.0.0.0/x".parse::<Cidr>().is_err());
        assert!("10.0.0.256/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn parse_bare_address_as_slash_32() {
        let c: Cidr = "1.2.3.4".parse().unwrap();
        assert_eq!(c.prefix_len(), 32);
        assert_eq!(c.network(), Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn containment_and_overlap() {
        let big: Cidr = "10.0.0.0/8".parse().unwrap();
        let small: Cidr = "10.5.0.0/16".parse().unwrap();
        let other: Cidr = "11.0.0.0/8".parse().unwrap();
        assert!(big.contains_block(&small));
        assert!(!small.contains_block(&big));
        assert!(big.overlaps(&small));
        assert!(small.overlaps(&big));
        assert!(!big.overlaps(&other));
    }

    #[test]
    fn iter_small_block() {
        let c: Cidr = "203.0.113.0/30".parse().unwrap();
        let addrs: Vec<u32> = c.iter().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], c.first());
        assert_eq!(addrs[3], c.last());
    }

    #[test]
    fn iter_top_of_space_does_not_overflow() {
        let c: Cidr = "255.255.255.252/30".parse().unwrap();
        assert_eq!(c.iter().count(), 4);
        assert_eq!(c.last(), u32::MAX);
    }
}
