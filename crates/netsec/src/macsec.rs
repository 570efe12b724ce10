//! MACsec-shaped layer-2 protection (IEEE 802.1AE).
//!
//! The paper's mitigation **M3** uses MACsec to encrypt raw Ethernet frames
//! between OLTs and upstream equipment with AES-GCM, providing
//! confidentiality, integrity and replay protection on each point-to-point
//! hop. This module reproduces the data-plane structure:
//!
//! * a **secure channel** (SC) per transmitting peer, identified by an SCI;
//! * up to four **secure associations** (SA) per channel, numbered by a
//!   2-bit association number (AN), each holding a Secure Association Key
//!   (SAK) — rotation installs the next AN, and each of a CAK's four ANs
//!   is used once (past AN 3 a fresh CAK is needed);
//! * a **SecTAG** carrying SCI, AN and a monotonically increasing packet
//!   number (PN), authenticated as associated data;
//! * a sliding **anti-replay window** on receive.
//!
//! Key distribution (MKA in real deployments) is simulated by deriving SAKs
//! from a pre-shared Connectivity Association Key (CAK) with HKDF, the same
//! trust bootstrap 802.1X-2010 uses.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use genio_crypto::gcm::AesGcm;
use genio_crypto::hkdf;
use genio_telemetry::{Counter, Histogram, Telemetry};

use crate::NetsecError;

/// Association number: 2 bits, so four concurrent SAs per channel.
pub type An = u8;

/// Secure Channel Identifier (simplified to a u64 node id).
pub type Sci = u64;

/// A protected frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacsecFrame {
    /// SecTAG: transmitting channel.
    pub sci: Sci,
    /// SecTAG: association number that keyed this frame.
    pub an: An,
    /// SecTAG: packet number (replay handle and nonce basis).
    pub pn: u64,
    /// AES-GCM ciphertext plus tag.
    pub secure_data: Vec<u8>,
}

/// Tuning knobs for a MACsec peer.
#[derive(Debug, Clone, Copy)]
pub struct MacsecConfig {
    /// Anti-replay window size in packets. `0` enforces strict ordering.
    pub replay_window: u64,
    /// PN value at which the sender refuses to continue without rotation.
    pub pn_limit: u64,
}

impl Default for MacsecConfig {
    fn default() -> Self {
        MacsecConfig {
            replay_window: 64,
            pn_limit: u32::MAX as u64,
        }
    }
}

#[derive(Debug)]
struct TxState {
    an: An,
    next_pn: u64,
    aead: AesGcm,
}

#[derive(Debug)]
struct RxAssociation {
    aead: AesGcm,
    /// Highest PN validated so far.
    high: u64,
    /// Bitmap of the `replay_window` packets below `high`.
    window: u128,
    /// True once any frame has been accepted.
    seen_any: bool,
}

impl RxAssociation {
    fn check_and_mark(&mut self, pn: u64, window_size: u64) -> Result<(), NetsecError> {
        if !self.seen_any {
            return Ok(());
        }
        if pn > self.high {
            return Ok(());
        }
        let age = self.high - pn;
        if age >= window_size.min(127) || window_size == 0 {
            return Err(NetsecError::ReplayDetected { pn });
        }
        if (self.window >> age) & 1 == 1 {
            return Err(NetsecError::ReplayDetected { pn });
        }
        Ok(())
    }

    fn mark(&mut self, pn: u64) {
        if !self.seen_any {
            self.seen_any = true;
            self.high = pn;
            self.window = 1;
            return;
        }
        if pn > self.high {
            let shift = pn - self.high;
            self.window = if shift >= 128 {
                0
            } else {
                self.window << shift
            };
            self.window |= 1;
            self.high = pn;
        } else {
            let age = self.high - pn;
            if age < 128 {
                self.window |= 1 << age;
            }
        }
    }
}

/// One endpoint of a MACsec-protected link.
///
/// Each peer transmits on its own secure channel (keyed by its SCI) and
/// receives on the channels of every peer sharing the CAK.
#[derive(Debug)]
pub struct MacsecPeer {
    sci: Sci,
    config: MacsecConfig,
    cak: Vec<u8>,
    tx: TxState,
    rx: HashMap<(Sci, An), RxAssociation>,
    /// Count of frames rejected on receive, by cause, for the benchmarks.
    pub rejected_replay: u64,
    /// Count of integrity failures observed on receive.
    pub rejected_integrity: u64,
    protect_time: Histogram,
    validate_time: Histogram,
    protect_batch_time: Histogram,
    validate_batch_time: Histogram,
    tx_frames: Counter,
    rx_accepted: Counter,
    rx_replay: Counter,
    rx_integrity: Counter,
}

fn derive_sak(cak: &[u8], sci: Sci, an: An) -> Vec<u8> {
    let info = format!("macsec-sak sci={sci} an={an}");
    hkdf::derive(b"genio-mka", cak, info.as_bytes(), 16)
}

impl MacsecPeer {
    /// Creates a peer with channel id `sci`, deriving its first SAK (AN 0)
    /// from the shared `cak`.
    ///
    /// # Errors
    ///
    /// Propagates key-setup failures from the AEAD layer.
    pub fn new(sci: Sci, config: &MacsecConfig, cak: &[u8]) -> crate::Result<Self> {
        let sak = derive_sak(cak, sci, 0);
        let aead = AesGcm::new(&sak)?;
        Ok(MacsecPeer {
            sci,
            config: *config,
            cak: cak.to_vec(),
            tx: TxState {
                an: 0,
                next_pn: 1,
                aead,
            },
            rx: HashMap::new(),
            rejected_replay: 0,
            rejected_integrity: 0,
            protect_time: Histogram::disabled(),
            validate_time: Histogram::disabled(),
            protect_batch_time: Histogram::disabled(),
            validate_batch_time: Histogram::disabled(),
            tx_frames: Counter::disabled(),
            rx_accepted: Counter::disabled(),
            rx_replay: Counter::disabled(),
            rx_integrity: Counter::disabled(),
        })
    }

    /// Attaches telemetry: TX/RX latency histograms
    /// (`netsec.macsec.protect_ns` / `netsec.macsec.validate_ns`) and
    /// frame-outcome counters. Handles are resolved once, here.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.protect_time = telemetry.histogram("netsec.macsec.protect_ns");
        self.validate_time = telemetry.histogram("netsec.macsec.validate_ns");
        self.protect_batch_time = telemetry.histogram("netsec.macsec.protect_many_ns");
        self.validate_batch_time = telemetry.histogram("netsec.macsec.validate_many_ns");
        self.tx_frames = telemetry.counter("netsec.macsec.tx_frames");
        self.rx_accepted = telemetry.counter("netsec.macsec.rx_accepted");
        self.rx_replay = telemetry.counter("netsec.macsec.rx_replay");
        self.rx_integrity = telemetry.counter("netsec.macsec.rx_integrity");
        self
    }

    /// This peer's secure channel identifier.
    pub fn sci(&self) -> Sci {
        self.sci
    }

    /// Current transmit association number.
    pub fn current_an(&self) -> An {
        self.tx.an
    }

    /// Rotates the transmit SAK to the next association number, resetting
    /// the packet number. Receivers derive the same SAK lazily from the CAK.
    ///
    /// A SAK is derived from (CAK, SCI, AN), so one CAK yields four SAKs.
    /// Wrapping from AN 3 back to AN 0 would re-derive AN 0's key with its
    /// packet numbers restarted at 1 — a GCM (key, nonce) reuse — so the
    /// rotation past AN 3 is refused.
    ///
    /// # Errors
    ///
    /// Returns [`NetsecError::AssociationsExhausted`] when AN 3 is in use,
    /// leaving the transmit state untouched; the caller must start a new
    /// connectivity association with a fresh CAK. Propagates key-setup
    /// failures from the AEAD layer.
    pub fn rotate_sak(&mut self) -> crate::Result<()> {
        if self.tx.an >= 3 {
            return Err(NetsecError::AssociationsExhausted);
        }
        let next_an = self.tx.an + 1;
        let sak = derive_sak(&self.cak, self.sci, next_an);
        self.tx = TxState {
            an: next_an,
            next_pn: 1,
            aead: AesGcm::new(&sak)?,
        };
        Ok(())
    }

    /// Protects an outgoing frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetsecError::PnExhausted`] when the PN reaches the
    /// configured limit; callers must [`MacsecPeer::rotate_sak`].
    pub fn protect(&mut self, payload: &[u8]) -> crate::Result<MacsecFrame> {
        let _timer = self.protect_time.start();
        if self.tx.next_pn >= self.config.pn_limit {
            return Err(NetsecError::PnExhausted);
        }
        self.tx_frames.incr(1);
        let pn = self.tx.next_pn;
        self.tx.next_pn += 1;
        let nonce = nonce_for(self.sci, pn);
        let aad = aad_for(self.sci, self.tx.an, pn);
        let secure_data = self.tx.aead.seal(&nonce, payload, &aad);
        Ok(MacsecFrame {
            sci: self.sci,
            an: self.tx.an,
            pn,
            secure_data,
        })
    }

    /// Validates and decrypts an incoming frame.
    ///
    /// # Errors
    ///
    /// * [`NetsecError::ReplayDetected`] — PN repeated or older than the
    ///   window.
    /// * [`NetsecError::IntegrityFailure`] — tag mismatch.
    pub fn validate(&mut self, frame: &MacsecFrame) -> crate::Result<Vec<u8>> {
        let _timer = self.validate_time.start();
        let key = (frame.sci, frame.an);
        let window = self.config.replay_window;
        let assoc = match self.rx.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let sak = derive_sak(&self.cak, frame.sci, frame.an);
                let aead = AesGcm::new(&sak)?;
                e.insert(RxAssociation {
                    aead,
                    high: 0,
                    window: 0,
                    seen_any: false,
                })
            }
        };
        if let Err(e) = assoc.check_and_mark(frame.pn, window) {
            self.rejected_replay += 1;
            self.rx_replay.incr(1);
            return Err(e);
        }
        let nonce = nonce_for(frame.sci, frame.pn);
        let aad = aad_for(frame.sci, frame.an, frame.pn);
        match assoc.aead.open(&nonce, &frame.secure_data, &aad) {
            Ok(pt) => {
                assoc.mark(frame.pn);
                self.rx_accepted.incr(1);
                Ok(pt)
            }
            Err(_) => {
                self.rejected_integrity += 1;
                self.rx_integrity.incr(1);
                Err(NetsecError::IntegrityFailure)
            }
        }
    }

    /// Protects a whole TDMA burst in one call: frame `i` carries PN
    /// `next_pn + i` and is byte-identical to what the `i`-th sequential
    /// [`MacsecPeer::protect`] call would have produced. The burst shares
    /// one batched AEAD call ([`AesGcm::seal_many`]), paying telemetry and
    /// dispatch once per burst instead of once per frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetsecError::PnExhausted`] if *any* frame of the burst
    /// would reach the configured PN limit; the batch is all-or-nothing, so
    /// nothing is sealed and the PN does not advance in that case.
    pub fn protect_many(&mut self, payloads: &[&[u8]]) -> crate::Result<Vec<MacsecFrame>> {
        let _timer = self.protect_batch_time.start();
        let n = payloads.len() as u64;
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.tx.next_pn.saturating_add(n - 1) >= self.config.pn_limit {
            return Err(NetsecError::PnExhausted);
        }
        let pn0 = self.tx.next_pn;
        self.tx.next_pn += n;
        self.tx_frames.incr(n);
        let nonces: Vec<[u8; 12]> = (0..n).map(|i| nonce_for(self.sci, pn0 + i)).collect();
        let aads: Vec<[u8; 17]> = (0..n)
            .map(|i| aad_for(self.sci, self.tx.an, pn0 + i))
            .collect();
        let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
        let sealed = self.tx.aead.seal_many(&nonces, payloads, &aad_refs)?;
        Ok(sealed
            .into_iter()
            .enumerate()
            .map(|(i, secure_data)| MacsecFrame {
                sci: self.sci,
                an: self.tx.an,
                pn: pn0 + i as u64,
                secure_data,
            })
            .collect())
    }

    /// Validates a burst of frames in one call, returning one result per
    /// frame in input order. Outcomes are identical to looping
    /// [`MacsecPeer::validate`]: replay state advances frame by frame, so an
    /// in-burst duplicate is rejected exactly as it would be sequentially,
    /// and error precedence (replay before integrity) is preserved.
    ///
    /// Internally, consecutive frames from the same (SCI, AN) are opened
    /// with one batched [`AesGcm::open_many`] call — safe because `open`
    /// mutates nothing; only the replay bookkeeping is order-dependent and
    /// that still runs strictly sequentially.
    pub fn validate_many(&mut self, frames: &[MacsecFrame]) -> Vec<crate::Result<Vec<u8>>> {
        let _timer = self.validate_batch_time.start();
        let mut results = Vec::with_capacity(frames.len());
        let mut start = 0usize;
        while start < frames.len() {
            // (SCI, AN) is a public association identifier, not secret
            // material; grouping on it leaks nothing.
            let assoc_id = (frames[start].sci, frames[start].an);
            let mut end = start + 1;
            while end < frames.len() && (frames[end].sci, frames[end].an) == assoc_id {
                end += 1;
            }
            self.validate_run(&frames[start..end], &mut results);
            start = end;
        }
        results
    }

    /// One same-(SCI, AN) run of [`MacsecPeer::validate_many`].
    fn validate_run(&mut self, run: &[MacsecFrame], results: &mut Vec<crate::Result<Vec<u8>>>) {
        let Some(first) = run.first() else { return };
        let window = self.config.replay_window;
        let assoc = match self.rx.entry((first.sci, first.an)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let sak = derive_sak(&self.cak, first.sci, first.an);
                match AesGcm::new(&sak) {
                    Ok(aead) => e.insert(RxAssociation {
                        aead,
                        high: 0,
                        window: 0,
                        seen_any: false,
                    }),
                    Err(err) => {
                        // Sequential validation would fail key setup for
                        // every frame of the run the same way.
                        for _ in run {
                            results.push(Err(NetsecError::Crypto(err.clone())));
                        }
                        return;
                    }
                }
            }
        };
        let nonces: Vec<[u8; 12]> = run.iter().map(|f| nonce_for(f.sci, f.pn)).collect();
        let aads: Vec<[u8; 17]> = run.iter().map(|f| aad_for(f.sci, f.an, f.pn)).collect();
        let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
        let ct_refs: Vec<&[u8]> = run.iter().map(|f| f.secure_data.as_slice()).collect();
        let opened = match assoc.aead.open_many(&nonces, &ct_refs, &aad_refs) {
            Ok(o) => o,
            // Unreachable (the slices are built with equal lengths), but
            // fall back to per-frame opens rather than assume.
            Err(_) => run
                .iter()
                .map(|f| {
                    assoc.aead.open(
                        &nonce_for(f.sci, f.pn),
                        &f.secure_data,
                        &aad_for(f.sci, f.an, f.pn),
                    )
                })
                .collect(),
        };
        for (frame, open_result) in run.iter().zip(opened) {
            if let Err(e) = assoc.check_and_mark(frame.pn, window) {
                self.rejected_replay += 1;
                self.rx_replay.incr(1);
                results.push(Err(e));
                continue;
            }
            match open_result {
                Ok(pt) => {
                    assoc.mark(frame.pn);
                    self.rx_accepted.incr(1);
                    results.push(Ok(pt));
                }
                Err(_) => {
                    self.rejected_integrity += 1;
                    self.rx_integrity.incr(1);
                    results.push(Err(NetsecError::IntegrityFailure));
                }
            }
        }
    }
}

fn nonce_for(sci: Sci, pn: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    // Low 32 bits of the SCI, taken byte-wise to avoid a lossy cast.
    let sci_be = sci.to_be_bytes();
    nonce[0..4].copy_from_slice(&sci_be[4..8]);
    nonce[4..12].copy_from_slice(&pn.to_be_bytes());
    nonce
}

fn aad_for(sci: Sci, an: An, pn: u64) -> [u8; 17] {
    let mut aad = [0u8; 17];
    aad[0..8].copy_from_slice(&sci.to_be_bytes());
    aad[8] = an;
    aad[9..17].copy_from_slice(&pn.to_be_bytes());
    aad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (MacsecPeer, MacsecPeer) {
        let cfg = MacsecConfig::default();
        (
            MacsecPeer::new(0xA, &cfg, b"cak").unwrap(),
            MacsecPeer::new(0xB, &cfg, b"cak").unwrap(),
        )
    }

    #[test]
    fn protect_validate_roundtrip() {
        let (mut a, mut b) = pair();
        let f = a.protect(b"hello olt").unwrap();
        assert_eq!(b.validate(&f).unwrap(), b"hello olt");
    }

    #[test]
    fn pn_increases_per_frame() {
        let (mut a, _) = pair();
        assert_eq!(a.protect(b"1").unwrap().pn, 1);
        assert_eq!(a.protect(b"2").unwrap().pn, 2);
    }

    #[test]
    fn bidirectional_channels_are_independent() {
        let (mut a, mut b) = pair();
        let fa = a.protect(b"from a").unwrap();
        let fb = b.protect(b"from b").unwrap();
        assert_eq!(b.validate(&fa).unwrap(), b"from a");
        assert_eq!(a.validate(&fb).unwrap(), b"from b");
    }

    #[test]
    fn exact_replay_rejected() {
        let (mut a, mut b) = pair();
        let f = a.protect(b"once").unwrap();
        b.validate(&f).unwrap();
        assert_eq!(
            b.validate(&f),
            Err(NetsecError::ReplayDetected { pn: f.pn })
        );
        assert_eq!(b.rejected_replay, 1);
    }

    #[test]
    fn out_of_order_within_window_accepted() {
        let (mut a, mut b) = pair();
        let f1 = a.protect(b"1").unwrap();
        let f2 = a.protect(b"2").unwrap();
        let f3 = a.protect(b"3").unwrap();
        b.validate(&f1).unwrap();
        b.validate(&f3).unwrap();
        // f2 is older than high but inside the window and unseen: accept.
        assert_eq!(b.validate(&f2).unwrap(), b"2");
        // But a second delivery of f2 is replay.
        assert!(b.validate(&f2).is_err());
    }

    #[test]
    fn outside_window_rejected() {
        let cfg = MacsecConfig {
            replay_window: 4,
            pn_limit: u32::MAX as u64,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let old = a.protect(b"old").unwrap();
        for i in 0..10 {
            let f = a.protect(format!("{i}").as_bytes()).unwrap();
            b.validate(&f).unwrap();
        }
        assert!(matches!(
            b.validate(&old),
            Err(NetsecError::ReplayDetected { .. })
        ));
    }

    #[test]
    fn strict_ordering_with_zero_window() {
        let cfg = MacsecConfig {
            replay_window: 0,
            pn_limit: u32::MAX as u64,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let f1 = a.protect(b"1").unwrap();
        let f2 = a.protect(b"2").unwrap();
        b.validate(&f2).unwrap();
        assert!(
            b.validate(&f1).is_err(),
            "older frame rejected under strict ordering"
        );
    }

    #[test]
    fn tampering_detected() {
        let (mut a, mut b) = pair();
        let mut f = a.protect(b"config").unwrap();
        f.secure_data[0] ^= 1;
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
        assert_eq!(b.rejected_integrity, 1);
    }

    #[test]
    fn sectag_tampering_detected() {
        let (mut a, mut b) = pair();
        let mut f = a.protect(b"config").unwrap();
        f.pn += 10; // forge a newer PN to slip past the replay check
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
    }

    #[test]
    fn rotation_changes_an_and_still_validates() {
        let (mut a, mut b) = pair();
        let f0 = a.protect(b"pre").unwrap();
        b.validate(&f0).unwrap();
        a.rotate_sak().unwrap();
        assert_eq!(a.current_an(), 1);
        let f1 = a.protect(b"post").unwrap();
        assert_eq!(f1.an, 1);
        assert_eq!(f1.pn, 1, "pn resets on rotation");
        assert_eq!(b.validate(&f1).unwrap(), b"post");
    }

    #[test]
    fn rotation_past_an_3_is_refused_and_keeps_tx_state() {
        let (mut a, mut b) = pair();
        for an in 1..=3 {
            a.rotate_sak().unwrap();
            assert_eq!(a.current_an(), an);
        }
        let before = a.protect(b"on an 3").unwrap();
        assert_eq!(a.rotate_sak(), Err(NetsecError::AssociationsExhausted));
        // No wrap to AN 0: the AN 3 key and its packet numbers continue.
        assert_eq!(a.current_an(), 3);
        let after = a.protect(b"still an 3").unwrap();
        assert_eq!((after.an, after.pn), (3, before.pn + 1));
        assert_eq!(b.validate(&before).unwrap(), b"on an 3");
        assert_eq!(b.validate(&after).unwrap(), b"still an 3");
    }

    #[test]
    fn pn_exhaustion_forces_rotation() {
        let cfg = MacsecConfig {
            replay_window: 64,
            pn_limit: 3,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        a.protect(b"1").unwrap();
        a.protect(b"2").unwrap();
        assert_eq!(a.protect(b"3").unwrap_err(), NetsecError::PnExhausted);
        a.rotate_sak().unwrap();
        assert!(a.protect(b"3").is_ok());
    }

    #[test]
    fn protect_many_matches_looped_protect() {
        let cfg = MacsecConfig::default();
        let mut batch = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut looped = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let payloads: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 20 + i as usize * 13]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let frames = batch.protect_many(&refs).unwrap();
        assert_eq!(frames.len(), payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(frames[i], looped.protect(payload).unwrap(), "frame {i}");
        }
    }

    #[test]
    fn validate_many_matches_sequential_semantics() {
        let cfg = MacsecConfig::default();
        let mut a = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut c = MacsecPeer::new(0xC, &cfg, b"cak").unwrap();
        let mut rx_batch = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let mut rx_seq = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut frames = a.protect_many(&refs).unwrap();
        frames[3].secure_data[0] ^= 1; // tamper one frame mid-burst
        frames.push(frames[1].clone()); // in-burst replay
        // Interleave a second channel so run-splitting is exercised.
        let from_c = c.protect_many(&refs[..2]).unwrap();
        frames.insert(2, from_c[0].clone());
        frames.push(from_c[1].clone());
        let batch_results = rx_batch.validate_many(&frames);
        let seq_results: Vec<_> = frames.iter().map(|f| rx_seq.validate(f)).collect();
        assert_eq!(batch_results, seq_results);
        assert_eq!(rx_batch.rejected_replay, rx_seq.rejected_replay);
        assert_eq!(rx_batch.rejected_integrity, rx_seq.rejected_integrity);
    }

    #[test]
    fn protect_many_is_all_or_nothing_on_pn_exhaustion() {
        let cfg = MacsecConfig {
            replay_window: 64,
            pn_limit: 4,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let refs: Vec<&[u8]> = (0..5).map(|_| b"x" as &[u8]).collect();
        assert_eq!(a.protect_many(&refs).unwrap_err(), NetsecError::PnExhausted);
        // The PN did not advance: a 3-frame burst (PNs 1..=3) still fits.
        assert_eq!(a.protect_many(&refs[..3]).unwrap().len(), 3);
        assert_eq!(a.protect_many(&refs[..1]).unwrap_err(), NetsecError::PnExhausted);
    }

    #[test]
    fn wrong_cak_fails_integrity() {
        let cfg = MacsecConfig::default();
        let mut a = MacsecPeer::new(1, &cfg, b"cak-a").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak-b").unwrap();
        let f = a.protect(b"secret").unwrap();
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
    }
}
