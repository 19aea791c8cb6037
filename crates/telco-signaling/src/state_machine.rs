//! The handover procedure as an explicit state machine (the paper's
//! Fig. 1).
//!
//! A handover advances through measurement → preparation → command →
//! execution → completion, exchanging the messages of
//! [`crate::messages`]. Failure injection names the step at which the
//! procedure breaks; the emitted message log is truncated there and the
//! appropriate abort messages appended — which is what gives each failure
//! cause its characteristic signaling time (Fig. 14b).

// telco-lint: deny-panic

use serde::{Deserialize, Serialize};

use crate::causes::{CauseCode, PrincipalCause};
use crate::messages::{Element, Envelope, HoType, Message};

/// Procedure phases, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Waiting for a triggering Measurement Report.
    AwaitingMeasurement,
    /// Source/MME preparing the target (admission, relocation, SRVCC).
    Preparing,
    /// Target prepared; command pending.
    Prepared,
    /// HO command delivered to the UE.
    Commanded,
    /// UE executing access at the target (RACH).
    Executing,
    /// Target confirmed; relocation completing, source release pending.
    Completing,
    /// Terminal: success or failure.
    Done,
}

/// Result of one handover procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoRun {
    /// Whether the handover completed successfully.
    pub success: bool,
    /// Failure cause (`None` on success).
    pub cause: Option<CauseCode>,
    /// Total signaling time, ms.
    pub duration_ms: f64,
    /// The captured message exchange.
    pub log: Vec<Envelope>,
}

impl HoRun {
    /// Number of signaling messages exchanged.
    pub fn message_count(&self) -> usize {
        self.log.len()
    }
}

/// One scripted step of the procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    from: Element,
    to: Element,
    message: Message,
    phase_after: Phase,
    /// Relative share of the procedure duration consumed by this step.
    weight: f64,
}

/// The longest procedure (vertical SRVCC) is 15 steps, so scripts fit in
/// a fixed stack buffer and executing a handover never touches the heap.
const MAX_SCRIPT_STEPS: usize = 16;

const PLACEHOLDER_STEP: Step = Step {
    from: Element::Ue,
    to: Element::Ue,
    message: Message::MeasurementReport,
    phase_after: Phase::Done,
    weight: 0.0,
};

/// A fixed-capacity, stack-allocated step script.
struct Script {
    steps: [Step; MAX_SCRIPT_STEPS],
    len: usize,
}

impl Script {
    /// Append a step. The longest script (vertical SRVCC) has 15 steps,
    /// so capacity can only be exceeded by a bug in `script()`; the
    /// debug assertion catches that in development while the release
    /// build stays total (an overflowing push is dropped).
    fn push(&mut self, step: Step) {
        debug_assert!(self.len < MAX_SCRIPT_STEPS, "script overflow");
        if let Some(slot) = self.steps.get_mut(self.len) {
            *slot = step;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[Step] {
        // `len <= MAX_SCRIPT_STEPS` is maintained by `push`.
        self.steps.get(..self.len).unwrap_or(&self.steps)
    }
}

/// Build the full (success-path) step script for a handover.
fn script(ho_type: HoType, srvcc: bool) -> Script {
    use Element::*;
    use Message::*;
    let mut s = Script { steps: [PLACEHOLDER_STEP; MAX_SCRIPT_STEPS], len: 0 };
    s.push(Step {
        from: Ue,
        to: SourceSector,
        message: MeasurementReport,
        phase_after: Phase::Preparing,
        weight: 0.02,
    });
    s.push(Step {
        from: SourceSector,
        to: Mme,
        message: HandoverRequired,
        phase_after: Phase::Preparing,
        weight: 0.05,
    });
    match ho_type {
        HoType::Intra4g5g => {
            s.push(Step {
                from: Mme,
                to: TargetSector,
                message: HandoverRequest,
                phase_after: Phase::Preparing,
                weight: 0.10,
            });
            s.push(Step {
                from: TargetSector,
                to: Mme,
                message: HandoverRequestAck,
                phase_after: Phase::Prepared,
                weight: 0.10,
            });
        }
        HoType::To3g | HoType::To2g => {
            if srvcc {
                s.push(Step {
                    from: Mme,
                    to: Msc,
                    message: PsToCsRequest,
                    phase_after: Phase::Preparing,
                    weight: 0.10,
                });
                s.push(Step {
                    from: Msc,
                    to: Mme,
                    message: PsToCsResponse,
                    phase_after: Phase::Preparing,
                    weight: 0.10,
                });
            }
            s.push(Step {
                from: Mme,
                to: Sgsn,
                message: ForwardRelocationRequest,
                phase_after: Phase::Preparing,
                weight: 0.15,
            });
            s.push(Step {
                from: Sgsn,
                to: Mme,
                message: ForwardRelocationResponse,
                phase_after: Phase::Prepared,
                weight: 0.15,
            });
        }
    }
    s.push(Step {
        from: Mme,
        to: SourceSector,
        message: HandoverCommand,
        phase_after: Phase::Commanded,
        weight: 0.05,
    });
    s.push(Step {
        from: SourceSector,
        to: Ue,
        message: RrcConnectionReconfiguration,
        phase_after: Phase::Commanded,
        weight: 0.05,
    });
    s.push(Step {
        from: Ue,
        to: TargetSector,
        message: RachPreamble,
        phase_after: Phase::Executing,
        weight: 0.12,
    });
    s.push(Step {
        from: TargetSector,
        to: Ue,
        message: RachResponse,
        phase_after: Phase::Executing,
        weight: 0.08,
    });
    s.push(Step {
        from: Ue,
        to: TargetSector,
        message: HandoverConfirm,
        phase_after: Phase::Executing,
        weight: 0.08,
    });
    s.push(Step {
        from: TargetSector,
        to: Mme,
        message: HandoverNotify,
        phase_after: Phase::Completing,
        weight: 0.05,
    });
    if ho_type.is_vertical() {
        s.push(Step {
            from: Sgsn,
            to: Mme,
            message: ForwardRelocationComplete,
            phase_after: Phase::Completing,
            weight: 0.05,
        });
    }
    s.push(Step {
        from: Mme,
        to: Sgw,
        message: ModifyBearerRequest,
        phase_after: Phase::Completing,
        weight: 0.05,
    });
    s.push(Step {
        from: Mme,
        to: SourceSector,
        message: UeContextRelease,
        phase_after: Phase::Done,
        weight: 0.05,
    });
    s
}

/// The abort tails appended after a failure cut (static: appending them
/// costs no allocation).
const ABORT_RELEASE: &[(Element, Element, Message)] =
    &[(Element::Mme, Element::SourceSector, Message::UeContextRelease)];
const ABORT_CANCEL: &[(Element, Element, Message)] = &[
    (Element::SourceSector, Element::Mme, Message::HandoverCancel),
    (Element::Mme, Element::SourceSector, Message::UeContextRelease),
];
const ABORT_INITIAL_UE: &[(Element, Element, Message)] = &[
    (Element::SourceSector, Element::Mme, Message::InitialUeMessage),
    (Element::Mme, Element::SourceSector, Message::UeContextRelease),
];

/// Index (into the script) at which a failure cause interrupts the
/// procedure, plus the abort messages it appends.
fn failure_cut(
    cause: Option<PrincipalCause>,
    script_len: usize,
    ho_type: HoType,
    srvcc: bool,
) -> (usize, &'static [(Element, Element, Message)]) {
    let prep_end = match ho_type {
        HoType::Intra4g5g => 4,
        _ => {
            if srvcc {
                6
            } else {
                4
            }
        }
    };
    match cause {
        // Rejected when the MME validates the HandoverRequired: the two
        // trigger messages happen, but no handover signaling elapses.
        Some(PrincipalCause::InvalidTargetSector) | Some(PrincipalCause::SrvccNotSubscribed) => {
            (2, ABORT_RELEASE)
        }
        // Target admission rejects during preparation.
        Some(PrincipalCause::TargetLoadTooHigh) => (prep_end - 1, ABORT_RELEASE),
        // Core detects a failure while preparing.
        Some(PrincipalCause::InfrastructureFailure) => (prep_end - 1, ABORT_RELEASE),
        // MSC answers PS→CS with a failure cause.
        Some(PrincipalCause::SrvccPsToCsFailure) => {
            (if srvcc { 4 } else { prep_end - 1 }, ABORT_RELEASE)
        }
        // Source cancels a prepared/commanded handover.
        Some(PrincipalCause::SourceCanceled) => (prep_end + 1, ABORT_CANCEL),
        // An Initial UE Message interrupts the ongoing procedure.
        Some(PrincipalCause::InterferingInitialUeMessage) => (prep_end, ABORT_INITIAL_UE),
        // Everything executed, but Forward Relocation Complete never came.
        Some(PrincipalCause::RelocationTimeout) => {
            // Cut right before ForwardRelocationComplete (vertical scripts).
            (script_len.saturating_sub(3), ABORT_RELEASE)
        }
        // Long-tail vendor causes: break mid-preparation.
        None => (prep_end - 1, ABORT_RELEASE),
    }
}

/// Execute one handover procedure.
///
/// `duration_ms` is the externally sampled total signaling time (from
/// [`crate::duration::DurationModel`]); the step log spreads it across the
/// exchanged messages proportionally to per-step weights. `failure`, when
/// set, names the cause the procedure fails with.
pub fn execute(
    ho_type: HoType,
    srvcc: bool,
    failure: Option<CauseCode>,
    duration_ms: f64,
) -> HoRun {
    let mut log = Vec::new();
    let success = execute_into(ho_type, srvcc, failure, duration_ms, &mut log);
    HoRun { success, cause: failure, duration_ms, log }
}

/// [`execute`] into a reused message-log buffer (cleared first). Returns
/// whether the procedure succeeded. The script lives on the stack and the
/// abort tails are static, so once `log`'s capacity has grown past the
/// longest procedure, executing a handover performs no heap allocation.
pub fn execute_into(
    ho_type: HoType,
    srvcc: bool,
    failure: Option<CauseCode>,
    duration_ms: f64,
    log: &mut Vec<Envelope>,
) -> bool {
    debug_assert!(duration_ms >= 0.0, "duration must be nonnegative");
    debug_assert!(
        !(srvcc && ho_type == HoType::Intra4g5g),
        "SRVCC only applies to vertical handovers"
    );
    log.clear();
    let steps = script(ho_type, srvcc);
    match failure {
        None => {
            lay_out(steps.as_slice(), duration_ms, log);
            true
        }
        Some(code) => {
            let principal = code.as_principal();
            let (cut, aborts) = failure_cut(principal, steps.len, ho_type, srvcc);
            let cut = cut.min(steps.len);
            let slice = steps.as_slice();
            // `cut <= len` by the `min` above, so `get` always hits.
            lay_out(slice.get(..cut).unwrap_or(slice), duration_ms, log);
            // Accumulated floating-point error can push the last laid-out
            // step an ulp past the total; aborts must never precede it.
            let abort_at = log.last().map_or(duration_ms, |e| e.at_ms.max(duration_ms));
            for &(from, to, message) in aborts {
                log.push(Envelope { at_ms: abort_at, from, to, message });
            }
            false
        }
    }
}

/// Spread `duration_ms` across steps proportionally to their weights,
/// appending the envelopes to `log`.
fn lay_out(steps: &[Step], duration_ms: f64, log: &mut Vec<Envelope>) {
    let total_weight: f64 = steps.iter().map(|s| s.weight).sum();
    let mut at = 0.0;
    log.reserve(steps.len() + 2);
    for step in steps {
        let dt = if total_weight > 0.0 { duration_ms * step.weight / total_weight } else { 0.0 };
        at += dt;
        log.push(Envelope { at_ms: at, from: step.from, to: step.to, message: step.message });
    }
}

/// A typed phase tracker enforcing legal transitions; used by tests and by
/// consumers that want to replay a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTracker {
    phase: Phase,
}

impl PhaseTracker {
    /// Start a procedure.
    pub fn new() -> Self {
        PhaseTracker { phase: Phase::AwaitingMeasurement }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Advance to `next`.
    ///
    /// # Panics
    ///
    /// Panics on a backwards transition (other than staying put), which
    /// would indicate a corrupted log.
    pub fn advance(&mut self, next: Phase) {
        // telco-lint: allow(panic): documented panic contract of a validation API — not on the trace hot path
        assert!(next >= self.phase, "illegal transition {:?} -> {next:?}", self.phase);
        self.phase = next;
    }
}

impl Default for PhaseTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::CauseCode;

    #[test]
    fn successful_intra_ho_exchanges_expected_messages() {
        let run = execute(HoType::Intra4g5g, false, None, 43.0);
        assert!(run.success);
        assert_eq!(run.cause, None);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert_eq!(msgs.first(), Some(&Message::MeasurementReport));
        assert!(msgs.contains(&Message::HandoverRequest));
        assert!(msgs.contains(&Message::RachPreamble));
        assert_eq!(msgs.last(), Some(&Message::UeContextRelease));
        assert!(!msgs.contains(&Message::ForwardRelocationRequest));
    }

    #[test]
    fn vertical_ho_uses_forward_relocation() {
        let run = execute(HoType::To3g, false, None, 412.0);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::ForwardRelocationRequest));
        assert!(msgs.contains(&Message::ForwardRelocationComplete));
        assert!(!msgs.contains(&Message::PsToCsRequest));
    }

    #[test]
    fn srvcc_adds_ps_to_cs_exchange() {
        let run = execute(HoType::To3g, true, None, 500.0);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::PsToCsRequest));
        assert!(msgs.contains(&Message::PsToCsResponse));
        // SRVCC adds signaling: more messages than the data-only script.
        let plain = execute(HoType::To3g, false, None, 500.0);
        assert!(run.message_count() > plain.message_count());
    }

    #[test]
    fn log_timestamps_are_nondecreasing_and_bounded() {
        for (ho_type, srvcc) in
            [(HoType::Intra4g5g, false), (HoType::To3g, true), (HoType::To2g, false)]
        {
            let run = execute(ho_type, srvcc, None, 100.0);
            assert!(run.log.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
            let last = run.log.last().unwrap().at_ms;
            assert!((last - 100.0).abs() < 1e-9, "total time {last}");
        }
    }

    #[test]
    fn cause3_truncates_before_target_contact() {
        let code = CauseCode::principal(PrincipalCause::InvalidTargetSector);
        let run = execute(HoType::Intra4g5g, false, Some(code), 0.0);
        assert!(!run.success);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::HandoverRequired));
        assert!(!msgs.contains(&Message::HandoverRequest), "target must never be contacted");
        assert_eq!(msgs.last(), Some(&Message::UeContextRelease));
    }

    #[test]
    fn cause1_emits_handover_cancel() {
        let code = CauseCode::principal(PrincipalCause::SourceCanceled);
        let run = execute(HoType::To3g, false, Some(code), 1400.0);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::HandoverCancel));
        assert!(!run.success);
    }

    #[test]
    fn cause8_executes_but_never_completes() {
        let code = CauseCode::principal(PrincipalCause::RelocationTimeout);
        let run = execute(HoType::To3g, false, Some(code), 10_050.0);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::HandoverConfirm), "execution must happen");
        assert!(!msgs.contains(&Message::ForwardRelocationComplete), "completion must be missing");
    }

    #[test]
    fn cause2_logs_interfering_initial_ue_message() {
        let code = CauseCode::principal(PrincipalCause::InterferingInitialUeMessage);
        let run = execute(HoType::Intra4g5g, false, Some(code), 1900.0);
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(msgs.contains(&Message::InitialUeMessage));
    }

    #[test]
    fn vendor_tail_cause_breaks_mid_preparation() {
        let run = execute(HoType::To3g, false, Some(CauseCode(500)), 600.0);
        assert!(!run.success);
        assert_eq!(run.cause, Some(CauseCode(500)));
        let msgs: Vec<Message> = run.log.iter().map(|e| e.message).collect();
        assert!(!msgs.contains(&Message::HandoverConfirm));
    }

    #[test]
    fn phase_tracker_enforces_order() {
        let mut t = PhaseTracker::new();
        t.advance(Phase::Preparing);
        t.advance(Phase::Prepared);
        t.advance(Phase::Done);
        assert_eq!(t.phase(), Phase::Done);
    }

    #[test]
    #[should_panic]
    fn phase_tracker_rejects_backwards() {
        let mut t = PhaseTracker::new();
        t.advance(Phase::Commanded);
        t.advance(Phase::Preparing);
    }

    // The guard is a `debug_assert!`, so only a debug build panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn srvcc_on_intra_rejected() {
        execute(HoType::Intra4g5g, true, None, 50.0);
    }
}
