//! Structured diagnostics for static image verification.
//!
//! The BBR pipeline's correctness claims (every placed word fault-free,
//! every fall-through adjacent, every transform semantics-preserving) are
//! checked statically — by [`crate::LinkedImage::verify`] here and by the
//! lint registry in `dvs-analysis`. All checkers report through one
//! [`Diagnostic`] type so callers get a lint id, a severity, a precise
//! location and a human-readable explanation instead of an opaque tuple,
//! and so findings can be emitted as text or JSON uniformly.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not a correctness violation (reported, exit 0).
    Warn,
    /// A violated invariant: the image must not be simulated.
    Deny,
}

impl Severity {
    /// The lowercase name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the image / fault map a finding points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// The image as a whole (no finer location applies).
    Image,
    /// A basic block, optionally narrowed to one word of its footprint.
    Block {
        /// Block id within the program.
        id: usize,
        /// Word offset within the block's footprint, when known.
        word: Option<u32>,
    },
    /// A physical cache frame (set, way).
    Frame {
        /// Set index.
        set: u32,
        /// Way index.
        way: u32,
    },
    /// A linear cache word index (the BBR direct-mapped view).
    Word {
        /// Word index in `0..total_words`.
        index: u32,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Image => f.write_str("image"),
            Location::Block { id, word: None } => write!(f, "block {id}"),
            Location::Block {
                id,
                word: Some(word),
            } => write!(f, "block {id} word {word}"),
            Location::Frame { set, way } => write!(f, "frame ({set}, {way})"),
            Location::Word { index } => write!(f, "cache word {index}"),
        }
    }
}

/// One static-analysis finding.
///
/// # Example
///
/// ```rust
/// use dvs_linker::{Diagnostic, Location, Severity};
///
/// let d = Diagnostic::deny(
///     "chunk-containment",
///     Location::Block { id: 3, word: Some(2) },
///     "placed word maps to defective cache word 17",
/// );
/// assert_eq!(d.to_string(), "deny[chunk-containment] block 3 word 2: \
///     placed word maps to defective cache word 17");
/// assert!(d.to_json().contains("\"lint\":\"chunk-containment\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Stable lint identifier (see [`lint_ids`]).
    pub lint: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A deny-level finding.
    pub fn deny(lint: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            severity: Severity::Deny,
            location,
            message: message.into(),
        }
    }

    /// A warn-level finding.
    pub fn warn(lint: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            severity: Severity::Warn,
            location,
            message: message.into(),
        }
    }

    /// Serializes the finding as one JSON object, e.g.
    /// `{"lint":"chunk-containment","severity":"deny","location":{"kind":"block","id":3,"word":2},"message":"…"}`.
    pub fn to_json(&self) -> String {
        let location = match self.location {
            Location::Image => r#"{"kind":"image"}"#.to_string(),
            Location::Block { id, word: None } => {
                format!(r#"{{"kind":"block","id":{id}}}"#)
            }
            Location::Block {
                id,
                word: Some(word),
            } => format!(r#"{{"kind":"block","id":{id},"word":{word}}}"#),
            Location::Frame { set, way } => {
                format!(r#"{{"kind":"frame","set":{set},"way":{way}}}"#)
            }
            Location::Word { index } => format!(r#"{{"kind":"word","index":{index}}}"#),
        };
        format!(
            r#"{{"lint":"{}","severity":"{}","location":{location},"message":"{}"}}"#,
            json_escape(self.lint),
            self.severity,
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.lint, self.location, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Stable lint identifiers shared between the linker's own verification
/// and the `dvs-analysis` registry.
pub mod lint_ids {
    /// Every placed word of a block must land on a fault-free cache word
    /// (equivalently: the block's footprint sits inside one fault-free
    /// chunk, possibly wrapping the cache boundary).
    pub const CHUNK_CONTAINMENT: &str = "chunk-containment";
    /// Block placements must not overlap in memory, must stay inside the
    /// image, and every elided fall-through must land exactly on the next
    /// block.
    pub const LAYOUT_SOUNDNESS: &str = "layout-soundness";
    /// Every block should be reachable from the entry under walker edge
    /// semantics (unreachable blocks waste fault-free chunk capacity).
    pub const CFG_REACHABILITY: &str = "cfg-reachability";
    /// After the BBR transform, shared literal pools must be empty and
    /// every referencing block must carry its own literals.
    pub const LITERAL_POOL_PLACEMENT: &str = "literal-pool-placement";
    /// The transformed/linked program must be trace-equivalent to the
    /// original program under walker edge semantics.
    pub const TRANSFORM_EQUIVALENCE: &str = "transform-equivalence";
    /// FFW stored patterns derived from the fault map must be contiguous,
    /// the right size, and remap injectively into fault-free entries.
    pub const FFW_WINDOW_CONSISTENCY: &str = "ffw-window-consistency";
    /// Whole-image dataflow proof: no control-flow path from the entry
    /// reaches an instruction fetch or literal load of a defective cache
    /// word.
    pub const VERIFY_FAULT_REACH: &str = "verify/fault-reach";
    /// Address value-range analysis: every address a reachable block can
    /// generate stays inside its placed extent and the image bounds.
    pub const VERIFY_VALUE_RANGE: &str = "verify/value-range";
    /// Warn-level: faulty frames whose repair capacity no reachable path
    /// touches (wasted FFW windows / BBR chunk fragments).
    pub const VERIFY_REMAP_LIVENESS: &str = "verify/remap-liveness";
    /// Bounded exhaustive checking of scheme state machines over tiny
    /// geometries (LRU-stack, inclusion, clean-map equivalence).
    pub const VERIFY_BOUNDED_MODEL: &str = "verify/bounded-model";
    /// Warn-level: the linker could not place a program over a fault map
    /// (expected at deep voltage), so no lint judged that image.
    pub const LINK_FAILURE: &str = "link-failure";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let d = Diagnostic::deny(
            lint_ids::CHUNK_CONTAINMENT,
            Location::Block {
                id: 7,
                word: Some(1),
            },
            "word maps to defective cache word 40",
        );
        assert_eq!(
            d.to_string(),
            "deny[chunk-containment] block 7 word 1: word maps to defective cache word 40"
        );
        let w = Diagnostic::warn(
            lint_ids::CFG_REACHABILITY,
            Location::Block { id: 2, word: None },
            "unreachable",
        );
        assert_eq!(w.to_string(), "warn[cfg-reachability] block 2: unreachable");
    }

    #[test]
    fn json_shape_round_trips_fields() {
        let d = Diagnostic::deny(
            lint_ids::FFW_WINDOW_CONSISTENCY,
            Location::Frame { set: 3, way: 1 },
            "pattern \"bad\"",
        );
        let j = d.to_json();
        assert!(j.contains(r#""lint":"ffw-window-consistency""#));
        assert!(j.contains(r#""severity":"deny""#));
        assert!(j.contains(r#""kind":"frame","set":3,"way":1"#));
        assert!(j.contains(r#"pattern \"bad\""#));
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn severity_orders_warn_below_deny() {
        assert!(Severity::Warn < Severity::Deny);
    }
}
