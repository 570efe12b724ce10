use std::fmt;

use genio_crypto::CryptoError;

/// Error type for network-security operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetsecError {
    /// A frame arrived on an unknown secure channel.
    UnknownChannel(u64),
    /// A frame referenced an association number with no installed key.
    NoAssociation {
        /// Channel identifier.
        sci: u64,
        /// Association number (0–3).
        an: u8,
    },
    /// The packet number fell outside the anti-replay window or repeated.
    ReplayDetected {
        /// Offending packet number.
        pn: u64,
    },
    /// Integrity check failed: frame tampered or wrong key.
    IntegrityFailure,
    /// Packet-number space exhausted; the SAK must be rotated.
    PnExhausted,
    /// Every association number of the CAK is used up: another rotation
    /// would re-derive AN 0's SAK and restart its packet numbers, reusing
    /// GCM nonces. Start a new connectivity association with a fresh CAK.
    AssociationsExhausted,
    /// A handshake message arrived out of order.
    HandshakeOutOfOrder(&'static str),
    /// Peer authentication failed during the handshake.
    PeerAuthentication(&'static str),
    /// The handshake transcript did not match (Finished verification).
    TranscriptMismatch,
    /// DNS name not found in the zone.
    NameNotFound(String),
    /// DNSSEC validation failed.
    DnssecInvalid(&'static str),
    /// An underlying crypto operation failed.
    Crypto(CryptoError),
}

impl fmt::Display for NetsecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsecError::UnknownChannel(sci) => write!(f, "unknown secure channel {sci:#x}"),
            NetsecError::NoAssociation { sci, an } => {
                write!(f, "no association {an} on channel {sci:#x}")
            }
            NetsecError::ReplayDetected { pn } => write!(f, "replay detected at pn {pn}"),
            NetsecError::IntegrityFailure => write!(f, "integrity check failed"),
            NetsecError::PnExhausted => write!(f, "packet number space exhausted"),
            NetsecError::AssociationsExhausted => {
                write!(f, "association numbers exhausted; a fresh CAK is required")
            }
            NetsecError::HandshakeOutOfOrder(what) => {
                write!(f, "handshake message out of order: {what}")
            }
            NetsecError::PeerAuthentication(why) => write!(f, "peer authentication failed: {why}"),
            NetsecError::TranscriptMismatch => write!(f, "handshake transcript mismatch"),
            NetsecError::NameNotFound(name) => write!(f, "name not found: {name}"),
            NetsecError::DnssecInvalid(why) => write!(f, "dnssec validation failed: {why}"),
            NetsecError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl std::error::Error for NetsecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetsecError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for NetsecError {
    fn from(e: CryptoError) -> Self {
        NetsecError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            NetsecError::ReplayDetected { pn: 9 }.to_string(),
            "replay detected at pn 9"
        );
        assert_eq!(
            NetsecError::IntegrityFailure.to_string(),
            "integrity check failed"
        );
    }

    #[test]
    fn crypto_errors_convert() {
        let e: NetsecError = CryptoError::AuthenticationFailed.into();
        assert!(matches!(e, NetsecError::Crypto(_)));
    }
}
