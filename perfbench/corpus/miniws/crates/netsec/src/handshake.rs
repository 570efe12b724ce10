//! R8/R9 fixture module: secret material flowing into format sinks,
//! and security-critical `Result`s for the discard fixtures in `demo`.
//!
//! Expected findings: three R8 — `leak_direct` (inline capture of a
//! secret-typed parameter), `describe_key` (the helper sinks its own
//! parameter) and `leak_via_hop` (the secret crosses one bare-argument
//! call hop into that helper). The projections and the sink-free helper
//! must stay silent; the `Result`-returning functions feed the R9
//! positives in `demo/src/ops.rs`.

/// Session key material — a nominal secret type (`Key` segment).
pub struct SessionKey {
    bytes: [u8; 32],
}

/// Handshake failure modes.
pub enum HandshakeError {
    /// The peer's confirmation value did not check out.
    BadConfirm,
    /// Not enough key material supplied.
    ShortMaterial,
}

/// R8 positive (direct): Debug-formats the key itself.
pub fn leak_direct(session_key: &SessionKey) -> String {
    format!("negotiated {session_key:?}")
}

/// R8 positive (direct): the helper sinks its own parameter.
pub fn describe_key(key: &SessionKey) -> String {
    format!("debug dump: {key:?}")
}

/// R8 positive (one hop): the secret crosses a bare-argument call into
/// a function whose parameter is known to reach a sink.
pub fn leak_via_hop(session: &SessionKey) -> String {
    let report = describe_key(session);
    report
}

/// R8 negative: only a public projection (the length) is formatted.
pub fn key_len_log(key: &SessionKey) -> String {
    let n = key.bytes.len();
    format!("key bytes: {n}")
}

/// R8 negative: the callee never sinks its parameter.
pub fn seal_with(key: &SessionKey, salt: u8) -> u8 {
    mix(key, salt)
}

/// Sink-free helper: combines without formatting anything.
pub fn mix(key: &SessionKey, salt: u8) -> u8 {
    key.bytes[0] ^ salt
}

/// Verifies the peer's confirmation value. Callers must consume the
/// verdict — discarding it is exactly what R9 flags.
pub fn verify_peer(confirm: &[u8]) -> Result<(), HandshakeError> {
    if confirm.is_empty() {
        return Err(HandshakeError::BadConfirm);
    }
    Ok(())
}

/// Installs negotiated key material into a [`SessionKey`].
pub fn install_key(material: &[u8]) -> Result<SessionKey, HandshakeError> {
    if material.len() < 32 {
        return Err(HandshakeError::ShortMaterial);
    }
    let mut bytes = [0u8; 32];
    for (dst, src) in bytes.iter_mut().zip(material) {
        *dst = *src;
    }
    Ok(SessionKey { bytes })
}
