//! Append-only event log: the lake's logical clock.
//!
//! Every mutation appends events, through an `Events` block — the only way
//! onto the log. The sequence number of the latest version-graph-affecting
//! event is the "timestamp of the graph" that citations embed (§6: "upon
//! any updates of the graph, a new citation would be generated with the
//! updated version and timestamp"). A key `@v<t>` names one graph: recovery
//! over the models ingested at or before `t`, under the options the graph
//! event at `t` names (`Event::known_roots`). Reads never append here.

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
    /// The version graph was rebuilt by an explicit
    /// `ModelLake::rebuild_version_graph`. Its subject names the recovery
    /// options: `"*"` for blind recovery (every legacy log's subject too),
    /// `roots:<id>,<id>,…` (ascending, no repeats) for recovery under
    /// those known roots.
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

/// Subject prefix of a [`EventKind::GraphRebuilt`] event recovered under
/// known roots.
const ROOTS: &str = "roots:";

/// The subject of the [`EventKind::GraphRebuilt`] event a rebuild under
/// `known_roots` logs (`None` = blind): the one textual form
/// [`Event::known_roots`] accepts, ids ascending and deduplicated, which
/// recovery treats as a set. An empty root list has no subject: a rooted
/// recovery names at least one root.
pub(crate) fn graph_subject(known_roots: Option<&[usize]>) -> crate::error::Result<String> {
    let Some(roots) = known_roots else {
        return Ok("*".into());
    };
    if roots.is_empty() {
        return Err(crate::error::LakeError::Config(
            "known roots name no model; pass None for blind recovery".into(),
        ));
    }
    let set: std::collections::BTreeSet<usize> = roots.iter().copied().collect();
    let ids: Vec<String> = set.iter().map(usize::to_string).collect();
    Ok(format!("{ROOTS}{}", ids.join(",")))
}

impl Event {
    /// The known roots the version graph at this event is recovered under:
    /// the subject's ids for a `roots:` [`EventKind::GraphRebuilt`] event,
    /// `None` (blind) for a `"*"` one and for every other kind. Subjects
    /// come from disk, so anything but the form [`graph_subject`] writes is
    /// a [`crate::error::LakeError::CorruptArtifact`].
    pub(crate) fn known_roots(&self) -> crate::error::Result<Option<Vec<usize>>> {
        if self.kind != EventKind::GraphRebuilt || self.subject == "*" {
            return Ok(None);
        }
        let corrupt = || {
            crate::error::LakeError::CorruptArtifact(format!(
                "event {}: graph subject {:?} names no recovery options",
                self.seq, self.subject
            ))
        };
        let list = self.subject.strip_prefix(ROOTS).ok_or_else(corrupt)?;
        let ids: Vec<usize> = list
            .split(',')
            .map(|id| id.parse().map_err(|_| corrupt()))
            .collect::<crate::error::Result<_>>()?;
        // Only the writer's own form: no sign, leading zero, repeat or
        // disorder, so one graph has one subject.
        match graph_subject(Some(&ids)) {
            Ok(canonical) if canonical == self.subject => Ok(Some(ids)),
            _ => Err(corrupt()),
        }
    }
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
    /// `head() + 1`, and a graph event must name recovery options
    /// ([`Event::known_roots`]); anything else is a corrupt record.
    pub(crate) fn push(&mut self, event: Event) -> crate::error::Result<()> {
        if event.seq != self.head() + 1 {
            return Err(crate::error::LakeError::CorruptArtifact(format!(
                "event {} does not follow the log head {}",
                event.seq,
                self.head()
            )));
        }
        event.known_roots()?;
        self.events.push(event);
        Ok(())
    }

    /// Latest sequence number (0 when empty).
    pub fn head(&self) -> u64 {
        self.events.len() as u64
    }

    /// The latest graph-affecting event: the one whose seq and options
    /// name the current version graph.
    pub fn graph_event(&self) -> Option<&Event> {
        self.events.iter().rev().find(|e| e.kind.affects_graph())
    }

    /// Sequence number of the latest graph-affecting event (0 when none).
    pub fn graph_timestamp(&self) -> u64 {
        self.graph_event().map(|e| e.seq).unwrap_or(0)
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
    fn graph_subjects_name_their_roots_and_nothing_else_parses() {
        use crate::error::LakeError;
        let event = |kind, subject: &str| Event {
            seq: 1,
            kind,
            subject: subject.into(),
        };
        assert_eq!(graph_subject(None).unwrap(), "*");
        let rooted = graph_subject(Some(&[9, 0, 3, 3])).unwrap();
        assert_eq!(rooted, "roots:0,3,9");
        let roots = event(EventKind::GraphRebuilt, &rooted).known_roots().unwrap();
        assert_eq!(roots, Some(vec![0, 3, 9]));
        assert_eq!(event(EventKind::GraphRebuilt, "*").known_roots().unwrap(), None);
        // A model's name is no graph subject, whatever it reads.
        let ingest = event(EventKind::ModelIngested, "roots:x");
        assert_eq!(ingest.known_roots().unwrap(), None);
        assert!(matches!(graph_subject(Some(&[])), Err(LakeError::Config(_))));

        let overlong = format!("roots:{}0", u64::MAX);
        let malformed = [
            "roots:x", "roots:", &overlong, "roots:3,0", "roots:1,1", "roots:01", "roots:+1",
            "roots:1,", "roots:,1", "roots: 1", "roots:-1", "", "blind", "ROOTS:1",
        ];
        for subject in malformed {
            let e = event(EventKind::GraphRebuilt, subject);
            match e.known_roots() {
                Err(LakeError::CorruptArtifact(_)) => {}
                other => panic!("{subject:?}: {other:?}"),
            }
            let mut log = EventLog::new();
            assert!(log.push(e).is_err(), "{subject:?} reached the log");
            assert_eq!(log.head(), 0);
        }
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
