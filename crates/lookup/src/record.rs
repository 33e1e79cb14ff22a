//! Geolocation records.

use std::fmt;

/// The result of a geolocation lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeoRecord {
    /// ISO 3166-1 alpha-2 country code (e.g. `"US"`), or `"ZZ"` when the
    /// location is unknown.
    pub country: String,
    /// Autonomous-system number, 0 if unknown.
    pub asn: u32,
    /// Organization name from the registration data.
    pub org: String,
}

impl GeoRecord {
    /// Creates a record.
    pub fn new(country: impl Into<String>, asn: u32, org: impl Into<String>) -> Self {
        Self {
            country: country.into(),
            asn,
            org: org.into(),
        }
    }

    /// The record returned for RFC 1918 / loopback / link-local space.
    pub(crate) fn private_network() -> Self {
        Self::new("ZZ", 0, "private network")
    }

    /// The record for addresses with no database entry (the paper's
    /// "could not be found in Whois" case).
    pub fn unknown() -> Self {
        Self::new("ZZ", 0, "unknown")
    }

    /// Whether this is the private-network sentinel.
    pub fn is_private(&self) -> bool {
        self.org == "private network"
    }
}

impl fmt::Display for GeoRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} AS{} {}", self.country, self.asn, self.org)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = GeoRecord::new("US", 13335, "Cloudflare");
        assert_eq!(r.country, "US");
        assert!(!r.is_private());
        assert!(GeoRecord::private_network().is_private());
        assert_eq!(GeoRecord::unknown().org, "unknown");
    }

    #[test]
    fn display() {
        assert_eq!(
            GeoRecord::new("DE", 9009, "Rook Media GmbH").to_string(),
            "DE AS9009 Rook Media GmbH"
        );
    }
}
