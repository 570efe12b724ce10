//! The correctness oracle behind `attempted`/`failed` on the data-path
//! workloads.
//!
//! Every frame position in a burst carries an expectation: a legitimate
//! frame must come through (and, at the edge, byte-identical to the payload
//! offered at the grant), and an injected attack frame must be rejected with
//! its own error class. Anything else is a failed operation.

use genio_netsec::NetsecError;
use genio_pon::PonError;

/// The rejection an injected attack frame must meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `PonError::Replay`: a GEM frame with a spent counter.
    GemReplay,
    /// `PonError::DecryptFailed`: a GEM frame with a flipped bit.
    GemAuth,
    /// `NetsecError::ReplayDetected`: a MACsec PN already seen in the window.
    MacReplay,
    /// `NetsecError::IntegrityFailure`: a MACsec frame with a flipped bit.
    MacIntegrity,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::GemReplay,
        Class::GemAuth,
        Class::MacReplay,
        Class::MacIntegrity,
    ];
}

pub fn classify_pon(e: &PonError) -> Option<Class> {
    match e {
        PonError::Replay => Some(Class::GemReplay),
        PonError::DecryptFailed => Some(Class::GemAuth),
        _ => None,
    }
}

pub fn classify_netsec(e: &NetsecError) -> Option<Class> {
    match e {
        NetsecError::ReplayDetected { .. } => Some(Class::MacReplay),
        NetsecError::IntegrityFailure => Some(Class::MacIntegrity),
        _ => None,
    }
}

/// What the oracle expects of one position of a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The legitimate frame offered as item `i` of the cycle.
    Deliver(usize),
    /// An injected attack frame.
    Reject(Class),
}

/// Operations attempted and failed, plus rejections by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub rejected: [u64; 4],
}

impl Tally {
    pub fn rejected(&self, class: Class) -> u64 {
        self.rejected[class as usize]
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (a, b) in self.rejected.iter_mut().zip(other.rejected) {
            *a += b;
        }
    }
}

/// Judges one stage's per-frame results against `expect` and returns the
/// legitimate frames that came through, as `(item, plaintext)` in order.
/// A legitimate frame that is refused, an attack that is accepted, and an
/// attack refused with the wrong error class each count as one failure.
pub fn judge<E>(
    expect: &[Expect],
    results: Vec<Result<Vec<u8>, E>>,
    classify: impl Fn(&E) -> Option<Class>,
    tally: &mut Tally,
) -> Vec<(usize, Vec<u8>)> {
    if results.len() != expect.len() {
        tally.failed += expect.len() as u64;
        return Vec::new();
    }
    let mut passed = Vec::with_capacity(expect.len());
    for (want, got) in expect.iter().zip(results) {
        match (*want, got) {
            (Expect::Deliver(item), Ok(plaintext)) => passed.push((item, plaintext)),
            (Expect::Reject(class), Err(e)) if classify(&e) == Some(class) => {
                tally.rejected[class as usize] += 1;
            }
            _ => tally.failed += 1,
        }
    }
    passed
}

/// Compares every delivered payload byte-for-byte with the one offered for
/// its item; returns the payload bytes delivered intact.
pub fn check_delivery(delivered: &[(usize, Vec<u8>)], offered: &[&[u8]], tally: &mut Tally) -> u64 {
    let mut bytes = 0u64;
    for (item, payload) in delivered {
        if offered.get(*item) == Some(&payload.as_slice()) {
            bytes += payload.len() as u64;
        } else {
            tally.failed += 1;
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFERED: [&[u8]; 2] = [b"first frame", b"second frame"];

    #[test]
    fn honest_burst_passes() {
        let mut tally = Tally::default();
        let expect = [
            Expect::Deliver(0),
            Expect::Reject(Class::GemReplay),
            Expect::Deliver(1),
        ];
        let results = vec![
            Ok(OFFERED[0].to_vec()),
            Err(PonError::Replay),
            Ok(OFFERED[1].to_vec()),
        ];
        let passed = judge(&expect, results, classify_pon, &mut tally);
        assert_eq!(check_delivery(&passed, &OFFERED, &mut tally), 23);
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.rejected(Class::GemReplay), 1);
    }

    #[test]
    fn corrupted_delivery_is_a_failure() {
        let mut tally = Tally::default();
        let mut corrupted = OFFERED[1].to_vec();
        corrupted[0] ^= 1;
        let passed = judge(
            &[Expect::Deliver(0), Expect::Deliver(1)],
            vec![Ok::<_, NetsecError>(OFFERED[0].to_vec()), Ok(corrupted)],
            classify_netsec,
            &mut tally,
        );
        assert_eq!(check_delivery(&passed, &OFFERED, &mut tally), 11);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn accepted_replay_is_a_failure() {
        let mut tally = Tally::default();
        let passed = judge(
            &[Expect::Deliver(0), Expect::Reject(Class::MacReplay)],
            vec![
                Ok::<_, NetsecError>(OFFERED[0].to_vec()),
                Ok(OFFERED[0].to_vec()),
            ],
            classify_netsec,
            &mut tally,
        );
        assert_eq!(passed.len(), 1);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.rejected(Class::MacReplay), 0);
    }

    #[test]
    fn wrong_rejection_class_and_lost_frames_are_failures() {
        let mut tally = Tally::default();
        let passed = judge(
            &[Expect::Reject(Class::GemReplay), Expect::Deliver(0)],
            vec![Err(PonError::DecryptFailed), Err(PonError::Replay)],
            classify_pon,
            &mut tally,
        );
        assert!(passed.is_empty());
        assert_eq!(tally.failed, 2);
        let short = judge(
            &[Expect::Deliver(0)],
            Vec::<Result<Vec<u8>, PonError>>::new(),
            classify_pon,
            &mut tally,
        );
        assert!(short.is_empty());
        assert_eq!(tally.failed, 3);
    }
}
