//! Threat report categories.

use std::fmt;

/// The report categories of Table IX, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Malware distribution or command-and-control.
    Malware,
    /// Phishing pages (credential theft).
    Phishing,
    /// Spam sources.
    Spam,
    /// SSH brute-force sources.
    SshBruteforce,
    /// Network scanning sources.
    Scan,
    /// Botnet membership.
    Botnet,
    /// Email brute-force sources.
    EmailBruteforce,
}

impl Category {
    /// All categories, in Table IX row order.
    pub const ALL: [Category; 7] = [
        Category::Malware,
        Category::Phishing,
        Category::Spam,
        Category::SshBruteforce,
        Category::Scan,
        Category::Botnet,
        Category::EmailBruteforce,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Malware => "Malware",
            Category::Phishing => "Phishing",
            Category::Spam => "Spam",
            Category::SshBruteforce => "SSH Bruteforce",
            Category::Scan => "Scan",
            Category::Botnet => "Botnet",
            Category::EmailBruteforce => "Email Bruteforce",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_categories_in_paper_order() {
        assert_eq!(Category::ALL.len(), 7);
        assert_eq!(Category::ALL[0], Category::Malware);
        assert_eq!(Category::ALL[6], Category::EmailBruteforce);
    }

    #[test]
    fn display_matches_table_ix_labels() {
        let labels: Vec<String> = Category::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            labels,
            vec![
                "Malware",
                "Phishing",
                "Spam",
                "SSH Bruteforce",
                "Scan",
                "Botnet",
                "Email Bruteforce"
            ]
        );
    }
}
