//! Append-only event log: the lake's logical clock.
//!
//! Every mutation appends events, through an `Events` block — the only way
//! onto the log. The sequence number of the latest version-graph-affecting
//! event is the "timestamp of the graph" that citations embed (§6: "upon
//! any updates of the graph, a new citation would be generated with the
//! updated version and timestamp").

use serde::{Deserialize, Serialize};

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A model artifact was ingested.
    ModelIngested,
    /// A model card was created or replaced.
    CardUpdated,
    /// A dataset was registered.
    DatasetRegistered,
    /// A benchmark was registered.
    BenchmarkRegistered,
    /// The version graph was (re)built.
    GraphRebuilt,
}

impl EventKind {
    /// Whether this event invalidates previously issued citations.
    ///
    /// **Contract** (pinned by `citations_are_stable_across_card_updates`
    /// and experiment E8): a citation timestamps the *version graph* — the
    /// lineage a reader relies on when crediting a model — so only events
    /// that can change that graph count: [`EventKind::ModelIngested`] and
    /// [`EventKind::GraphRebuilt`]. [`EventKind::CardUpdated`] is
    /// deliberately excluded: documentation edits must not invalidate
    /// outstanding citations, and they stay independently auditable via
    /// [`EventLog::history_of`] and card verification. Dataset/benchmark
    /// registrations likewise leave the model graph untouched.
    pub fn affects_graph(&self) -> bool {
        matches!(self, EventKind::ModelIngested | EventKind::GraphRebuilt)
    }
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotone sequence number (1-based).
    pub seq: u64,
    /// Kind.
    pub kind: EventKind,
    /// Affected entity name.
    pub subject: String,
}

/// The append-only log.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends an already-numbered event — how an `Events` block lands on
    /// the lake's log. The log has no gaps, so `event.seq` must be
    /// `head() + 1`; anything else is a corrupt record.
    pub(crate) fn push(&mut self, event: Event) -> crate::error::Result<()> {
        if event.seq != self.head() + 1 {
            return Err(crate::error::LakeError::CorruptArtifact(format!(
                "event {} does not follow the log head {}",
                event.seq,
                self.head()
            )));
        }
        self.events.push(event);
        Ok(())
    }

    /// Latest sequence number (0 when empty).
    pub fn head(&self) -> u64 {
        self.events.len() as u64
    }

    /// Sequence number of the latest graph-affecting event (0 when none).
    pub fn graph_timestamp(&self) -> u64 {
        self.events
            .iter()
            .rev()
            .find(|e| e.kind.affects_graph())
            .map(|e| e.seq)
            .unwrap_or(0)
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events concerning a subject (audit trail of one model).
    pub fn history_of(&self, subject: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.subject == subject).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends the next event the way an `Events` block does.
    fn append(log: &mut EventLog, kind: EventKind, subject: &str) -> u64 {
        let seq = log.head() + 1;
        let subject = subject.into();
        log.push(Event { seq, kind, subject }).unwrap();
        seq
    }

    #[test]
    fn sequence_is_monotone() {
        let mut log = EventLog::new();
        assert_eq!(log.head(), 0);
        let a = append(&mut log, EventKind::ModelIngested, "m1");
        let b = append(&mut log, EventKind::CardUpdated, "m1");
        assert_eq!((a, b), (1, 2));
        assert_eq!(log.head(), 2);
    }

    #[test]
    fn graph_timestamp_tracks_graph_events_only() {
        let mut log = EventLog::new();
        assert_eq!(log.graph_timestamp(), 0);
        append(&mut log, EventKind::DatasetRegistered, "d");
        assert_eq!(log.graph_timestamp(), 0);
        append(&mut log, EventKind::ModelIngested, "m1");
        assert_eq!(log.graph_timestamp(), 2);
        append(&mut log, EventKind::CardUpdated, "m1");
        assert_eq!(log.graph_timestamp(), 2);
        append(&mut log, EventKind::GraphRebuilt, "*");
        assert_eq!(log.graph_timestamp(), 4);
    }

    #[test]
    fn card_updates_never_affect_graph() {
        // Regression pin for the citation contract: any number of card
        // edits (or dataset/benchmark registrations) leaves the graph
        // timestamp — and hence every outstanding citation — unchanged.
        let mut log = EventLog::new();
        append(&mut log, EventKind::ModelIngested, "m1");
        append(&mut log, EventKind::GraphRebuilt, "*");
        let pinned = log.graph_timestamp();
        for _ in 0..5 {
            append(&mut log, EventKind::CardUpdated, "m1");
            append(&mut log, EventKind::DatasetRegistered, "d");
            append(&mut log, EventKind::BenchmarkRegistered, "b");
            assert_eq!(log.graph_timestamp(), pinned);
        }
        assert!(!EventKind::CardUpdated.affects_graph());
        assert!(!EventKind::DatasetRegistered.affects_graph());
        assert!(!EventKind::BenchmarkRegistered.affects_graph());
    }

    #[test]
    fn push_accepts_only_the_next_seq() {
        let mut log = EventLog::new();
        let event = |seq| Event {
            seq,
            kind: EventKind::GraphRebuilt,
            subject: "*".into(),
        };
        assert!(log.push(event(2)).is_err(), "a gap");
        log.push(event(1)).unwrap();
        assert!(log.push(event(1)).is_err(), "a repeat");
        assert_eq!(log.head(), 1);
    }

    #[test]
    fn history_filters_by_subject() {
        let mut log = EventLog::new();
        append(&mut log, EventKind::ModelIngested, "m1");
        append(&mut log, EventKind::ModelIngested, "m2");
        append(&mut log, EventKind::CardUpdated, "m1");
        let h = log.history_of("m1");
        assert_eq!(h.len(), 2);
        assert!(h.iter().all(|e| e.subject == "m1"));
        assert_eq!(log.events().len(), 3);
    }
}
