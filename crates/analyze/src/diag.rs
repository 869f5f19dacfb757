//! Diagnostic types and renderers.
//!
//! Every rule violation is reported as a [`Diagnostic`] carrying a
//! stable code (`A1`–`A6` for the anomaly rules, `B1`/`B2` for the graph
//! budgets), a severity, the key it anchors to, a human message and a
//! fix-it hint. Two renderers are provided: a rustc-style text form for
//! terminals and a line-delimited JSON form for tooling (`metalint
//! --json`, CI baselines).

use std::fmt;

use streammeta_core::{JsonStr, MetadataKey};

/// How severe a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// A latent hazard: the configuration is suspicious but may be
    /// intentional (budget overruns, alternative-only dangling edges).
    Warning,
    /// A configuration bug: the metadata graph will produce wrong values
    /// or fail at runtime (the paper's Figure 4/5 anomalies, cycles).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes of the rule engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DiagCode {
    /// Figure 4: an on-demand, reset-on-read item shared by several
    /// subscription roots — the consumers reset each other's interval.
    SharedOnDemandReset,
    /// Figure 5: an on-demand stateful aggregate over a periodically
    /// updated input — accesses sample the update schedule instead of
    /// observing it.
    OnDemandOverPeriodic,
    /// A dependency cycle, including cycles only reachable through
    /// dynamic-dependency alternatives.
    DependencyCycle,
    /// A dependency on an item no attached registry defines.
    DanglingDependency,
    /// Period inversion: a periodic item refreshes faster than a
    /// periodic dependency it reads.
    PeriodInversion,
    /// Isolation violation: a triggered item feeds a periodic one, so
    /// the periodic snapshot can change mid-window.
    IsolationViolation,
    /// A reset-on-read item feeds dependents while the manager batches
    /// propagation into epochs: the flush reads (and resets) the
    /// measurement once per round, so the coalesced intermediate
    /// updates' intervals are silently merged.
    EpochCoalescedReset,
    /// Budget: the dependency chain is deeper than the propagation-depth
    /// ceiling.
    PropagationDepth,
    /// Budget: an item has more dependents than the fan-out ceiling.
    FanOut,
    /// Containment: a compute deadline without a fallback policy — the
    /// overrun is counted but the late value is still served.
    DeadlineWithoutFallback,
}

impl DiagCode {
    /// The stable short code (`A1`…`A6`, `B1`, `B2`).
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::SharedOnDemandReset => "A1",
            DiagCode::OnDemandOverPeriodic => "A2",
            DiagCode::DependencyCycle => "A3",
            DiagCode::DanglingDependency => "A4",
            DiagCode::PeriodInversion => "A5",
            DiagCode::IsolationViolation => "A6",
            DiagCode::EpochCoalescedReset => "A7",
            DiagCode::PropagationDepth => "B1",
            DiagCode::FanOut => "B2",
            DiagCode::DeadlineWithoutFallback => "C1",
        }
    }

    /// A one-line name of the rule, used in listings.
    pub fn name(&self) -> &'static str {
        match self {
            DiagCode::SharedOnDemandReset => "shared-on-demand-reset",
            DiagCode::OnDemandOverPeriodic => "on-demand-over-periodic",
            DiagCode::DependencyCycle => "dependency-cycle",
            DiagCode::DanglingDependency => "dangling-dependency",
            DiagCode::PeriodInversion => "period-inversion",
            DiagCode::IsolationViolation => "isolation-violation",
            DiagCode::EpochCoalescedReset => "epoch-coalesced-reset",
            DiagCode::PropagationDepth => "propagation-depth",
            DiagCode::FanOut => "fan-out",
            DiagCode::DeadlineWithoutFallback => "deadline-without-fallback",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding of the rule engine.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: DiagCode,
    /// Error (configuration bug) or warning (latent hazard).
    pub severity: Severity,
    /// The item the diagnostic anchors to.
    pub key: MetadataKey,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it, in one sentence.
    pub hint: String,
    /// Other items involved (cycle members, the shared roots, the
    /// periodic input), in deterministic order.
    pub related: Vec<MetadataKey>,
}

impl Diagnostic {
    /// Renders the diagnostic in rustc style:
    ///
    /// ```text
    /// error[A1]: on-demand item resets shared state ...
    ///   --> n3/input_rate_naive
    ///   = note: involves n3/probe_a, n3/probe_b
    ///   = help: use a shared periodic item instead
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}\n",
            self.severity,
            self.code.code(),
            self.message,
            self.key
        );
        if !self.related.is_empty() {
            let list: Vec<String> = self.related.iter().map(|k| k.to_string()).collect();
            out.push_str(&format!("  = note: involves {}\n", list.join(", ")));
        }
        out.push_str(&format!("  = help: {}\n", self.hint));
        out
    }

    /// Renders the diagnostic as one JSON object (machine-readable
    /// `metalint --json` output). Hand-rolled: the workspace is offline
    /// and carries no serde.
    pub fn render_json(&self) -> String {
        let related: Vec<String> = self
            .related
            .iter()
            .map(|k| JsonStr(&k.to_string()).to_string())
            .collect();
        format!(
            "{{\"code\":\"{}\",\"rule\":\"{}\",\"severity\":\"{}\",\"key\":{},\"message\":{},\"hint\":{},\"related\":[{}]}}",
            self.code.code(),
            self.code.name(),
            self.severity,
            JsonStr(&self.key.to_string()),
            JsonStr(&self.message),
            JsonStr(&self.hint),
            related.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_core::NodeId;

    fn diag() -> Diagnostic {
        Diagnostic {
            code: DiagCode::SharedOnDemandReset,
            severity: Severity::Error,
            key: MetadataKey::new(NodeId(3), "input_rate_naive"),
            message: "shared reset-on-read item".into(),
            hint: "use a periodic item".into(),
            related: vec![MetadataKey::new(NodeId(3), "io_ratio")],
        }
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let t = diag().render_text();
        assert!(t.starts_with("error[A1]: "));
        assert!(t.contains("--> n3/input_rate_naive"));
        assert!(t.contains("= help: use a periodic item"));
        assert!(t.contains("= note: involves n3/io_ratio"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let j = diag().render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"A1\""));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\"related\":[\"n3/io_ratio\"]"));
    }

    #[test]
    fn json_escaping() {
        let mut d = diag();
        d.message = "a\"b\\c\nd".into();
        assert!(d.render_json().contains(r#""message":"a\"b\\c\nd""#));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(DiagCode::SharedOnDemandReset.code(), "A1");
        assert_eq!(DiagCode::OnDemandOverPeriodic.code(), "A2");
        assert_eq!(DiagCode::DependencyCycle.code(), "A3");
        assert_eq!(DiagCode::DanglingDependency.code(), "A4");
        assert_eq!(DiagCode::PeriodInversion.code(), "A5");
        assert_eq!(DiagCode::IsolationViolation.code(), "A6");
        assert_eq!(DiagCode::EpochCoalescedReset.code(), "A7");
        assert_eq!(DiagCode::PropagationDepth.code(), "B1");
        assert_eq!(DiagCode::FanOut.code(), "B2");
        assert_eq!(DiagCode::DeadlineWithoutFallback.code(), "C1");
    }
}
