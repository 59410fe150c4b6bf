//! Precomputed per-ASN decision tables for the statistics fold and the
//! accept replay.
//!
//! The row path re-derives the same facts for every record: a linear
//! [`AsnMapping::operator_of`] scan, a verdict lookup, the registry's
//! access kind, and the operator threshold. All of those are functions
//! of the ASN alone — only the final latency comparison needs the
//! record. This module folds the per-ASN work into sorted lookup
//! tables built once per pipeline run. The statistics fold resolves
//! each run of records from one ASN to its [`Slot`] once (a binary
//! search over ~67 ASNs); the accept replay then looks a record's rule
//! up by slot and, when the rule reads no latency, decides the slot's
//! whole run at once, with decisions *identical* to the row-at-a-time
//! reference (`row_accept`, kept in this module's tests as the oracle
//! the table is checked against, beside the record-at-a-time replay the
//! run-wise one is checked against).

use crate::asn_map::AsnMapping;
use crate::prefix_filter::MEO_FLOOR_MS;
use crate::stream::{AcceptPass, CorpusStats, StreamOptions};
use crate::validate::{AsnVerdict, LatencyBands};
use sno_types::{AccessKind, Asn, Operator, OrbitClass};
use std::collections::BTreeMap;
use std::iter;

/// A record's *slot*: its ASN's position in the sorted [`AsnOps`] index,
/// which is also the position of the ASN's rule in the [`AcceptTable`],
/// or [`UNMAPPED`] for an ASN outside the curated mapping. The
/// statistics pass keeps one per record, in record order
/// ([`CorpusStats::slots`]).
pub type Slot = u16;

/// The slot of every ASN the curated mapping does not list (the curated
/// mapping's 67 ASNs take slots `0..67`).
pub const UNMAPPED: Slot = Slot::MAX;

/// Sorted ASN→operator index: what [`AsnMapping::operator_of`] answers,
/// without the per-call linear scan. Ties (an ASN listed under two
/// operators) resolve to the first operator in mapping order, exactly
/// as the linear scan does. It also carries the band edges the
/// statistics pass counts each slot's latencies at.
#[derive(Debug, Clone)]
pub struct AsnOps {
    asns: Vec<Asn>,
    ops: Vec<Operator>,
    /// The operator for the *prefix-statistics* path: `None` for ASNs
    /// of LEO-including operators (identified at ASN granularity, so
    /// the strict prefix filter never sees them).
    prefix_ops: Vec<Option<Operator>>,
    /// [`LatencyBands::edges`] of the bands stage 3 reads.
    edges: Vec<f64>,
}

impl AsnOps {
    /// Build the index from a curated mapping, counting at the default
    /// [`LatencyBands`] (those of [`Pipeline::default`](crate::Pipeline)).
    pub fn new(mapping: &AsnMapping) -> AsnOps {
        AsnOps::with_bands(mapping, LatencyBands::default())
    }

    /// Build the index from a curated mapping, counting at `bands`.
    pub(crate) fn with_bands(mapping: &AsnMapping, bands: LatencyBands) -> AsnOps {
        let mut pairs: Vec<(Asn, Operator)> = Vec::new();
        for (&op, asns) in &mapping.mapping {
            for &asn in asns {
                if !pairs.iter().any(|&(a, _)| a == asn) {
                    pairs.push((asn, op));
                }
            }
        }
        pairs.sort_by_key(|&(asn, _)| asn);
        let asns: Vec<Asn> = pairs.iter().map(|&(a, _)| a).collect();
        let ops: Vec<Operator> = pairs.iter().map(|&(_, op)| op).collect();
        let prefix_ops: Vec<Option<Operator>> = ops
            .iter()
            .map(|&op| {
                let access = sno_registry::sources::access_of(op);
                (!access.includes(OrbitClass::Leo)).then_some(op)
            })
            .collect();
        AsnOps {
            asns,
            ops,
            prefix_ops,
            edges: bands.edges(),
        }
    }

    /// The band edges each slot's latencies are counted at.
    pub(crate) fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// The operator an ASN maps to (the indexed `operator_of`).
    pub fn get(&self, asn: Asn) -> Option<Operator> {
        let i = self.asns.binary_search(&asn).ok()?;
        self.ops.get(i).copied()
    }

    /// The slot of an ASN: its position in this index, or [`UNMAPPED`].
    pub fn slot(&self, asn: Asn) -> Slot {
        self.asns
            .binary_search(&asn)
            .ok()
            .and_then(|i| Slot::try_from(i).ok())
            .unwrap_or(UNMAPPED)
    }

    /// The operator a slot contributes prefix statistics to: `None`
    /// for [`UNMAPPED`] and for LEO-including operators.
    pub fn prefix_op(&self, slot: Slot) -> Option<Operator> {
        self.prefix_ops.get(usize::from(slot)).copied().flatten()
    }
}

/// What to do with a record from one ASN, given only its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AsnRule {
    /// Unconditionally rejected (stage-3 outlier verdict).
    Reject,
    /// Unconditionally attributed (LEO: identified at ASN level).
    Accept(Operator),
    /// Attributed when `latency > floor` (the MEO regime cut).
    AboveExclusive(Operator, f64),
    /// Attributed when `latency >= threshold` (the relaxed GEO filter).
    AtLeast(Operator, f64),
}

impl AsnRule {
    /// Decide one record of this rule's ASN from its p5 latency (ms).
    fn decide(self, latency_ms: f64) -> Option<Operator> {
        match self {
            AsnRule::Reject => None,
            AsnRule::Accept(op) => Some(op),
            AsnRule::AboveExclusive(op, floor) => (latency_ms > floor).then_some(op),
            AsnRule::AtLeast(op, threshold) => (latency_ms >= threshold).then_some(op),
        }
    }

    /// The decision every record of this rule's ASN gets whatever its
    /// latency, for the rules that read none (`Reject`, `Accept`);
    /// `None` for the rules that compare each record's latency.
    fn fixed(self) -> Option<Option<Operator>> {
        match self {
            AsnRule::Reject => Some(None),
            AsnRule::Accept(op) => Some(Some(op)),
            AsnRule::AboveExclusive(..) | AsnRule::AtLeast(..) => None,
        }
    }

    /// The operator an accepted record is attributed to.
    fn operator(self) -> Option<Operator> {
        match self {
            AsnRule::Reject => None,
            AsnRule::Accept(op) | AsnRule::AboveExclusive(op, _) | AsnRule::AtLeast(op, _) => {
                Some(op)
            }
        }
    }
}

/// The per-ASN accept table: stage 4's decision logic with everything
/// but the latency comparison precomputed, one rule per [`AsnOps`] slot
/// in slot order.
///
/// Equality compares every rule bit-for-bit (thresholds included) —
/// the incremental path uses it as the *epoch trigger*: as long as the
/// table derived from the updated statistics equals the one acceptance
/// state was built under, previously decided records would decide the
/// same way today, so the state stays valid and only new frames need
/// deciding.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptTable {
    asns: Vec<Asn>,
    rules: Vec<AsnRule>,
}

impl AcceptTable {
    /// Build the table from the stage 1–3c outputs. One entry per
    /// curated ASN, rules mirroring the row-at-a-time reference
    /// comparison for comparison (strict `>` for the MEO floor, `>=` for
    /// relaxed thresholds).
    pub fn build(
        mapping: &AsnMapping,
        verdicts: &BTreeMap<Asn, AsnVerdict>,
        thresholds: &BTreeMap<Operator, f64>,
        default_threshold: f64,
    ) -> AcceptTable {
        let index = AsnOps::new(mapping);
        let rules: Vec<AsnRule> = index
            .asns
            .iter()
            .zip(&index.ops)
            .map(|(&asn, &op)| {
                if matches!(verdicts.get(&asn), Some(AsnVerdict::Outlier(_))) {
                    return AsnRule::Reject;
                }
                match sno_registry::sources::access_of(op) {
                    AccessKind::Satellite(OrbitClass::Leo) => AsnRule::Accept(op),
                    AccessKind::Satellite(OrbitClass::Meo) => {
                        AsnRule::AboveExclusive(op, MEO_FLOOR_MS)
                    }
                    _ => {
                        let threshold = thresholds.get(&op).copied().unwrap_or(default_threshold);
                        AsnRule::AtLeast(op, threshold)
                    }
                }
            })
            .collect();
        AcceptTable {
            asns: index.asns,
            rules,
        }
    }

    /// Decide one record from its ASN and p5 latency (ms).
    pub fn decide(&self, asn: Asn, latency_ms: f64) -> Option<Operator> {
        let i = self.asns.binary_search(&asn).ok()?;
        self.rules.get(i)?.decide(latency_ms)
    }
}

/// Acceptance state over the records folded into a [`CorpusStats`]:
/// stage 4's per-record decisions, kept across calls so that deciding
/// newly folded records costs O(delta).
///
/// An accept decision reads a record's ASN and p5 latency only, and
/// pass 1 already keeps both in record order: the slot column
/// ([`CorpusStats::slots`]) and the per-ASN latency buckets (`by_asn`).
/// The k-th record of a slot carries the k-th latency of that slot's
/// bucket, so `AcceptState::replay` decides records by walking the
/// slot column with one cursor per slot into the buckets, without a
/// second pass over the source. A rule that reads no latency
/// (`Accept`, `Reject`, an unmapped slot) decides its slot's whole run
/// of equal slots at once, with one lane lookup: the run's bits are
/// appended a word at a time, its count added once, its accepted
/// latencies copied as one slice. The latency rules (`AboveExclusive`,
/// `AtLeast`) compare record by record and never look for the end of
/// their run, so a one-record run costs what its record costs.
/// [`Pipeline::run_streamed`](crate::pipeline::Pipeline::run_streamed)
/// replays every record once. The online identifier keeps the state
/// across snapshots, with the exact table it was decided under, so a
/// snapshot only has to:
///
/// 1. re-derive the table from the updated statistics;
/// 2. if it equals the stored table (`AcceptState::compatible`),
///    replay just the records folded since `decided` — O(delta);
/// 3. otherwise bump the epoch (`AcceptState::reset`) and replay the
///    whole slot column.
///
/// Every record is decided by its slot's rule in record order, so the
/// state after any schedule of steps 2–3 is byte-identical to one
/// replay over the full stream — the invariant the online determinism
/// suite pins.
#[derive(Debug, Clone, Default)]
pub struct AcceptState {
    /// Bumps every time the table shifted and the stream was re-decided.
    epoch: u64,
    /// The table the current pass state was decided under; `None` until
    /// the first [`AcceptState::reset`].
    table: Option<AcceptTable>,
    /// The accept-pass outputs accumulated so far.
    pass: AcceptPass,
    /// Pass options the state was built under (dense vector and
    /// per-operator samples are shape-changing, so a flip invalidates).
    opts: StreamOptions,
    /// Records decided so far: a high-water index into the slot column.
    decided: usize,
    /// Per-slot read positions in the `by_asn` buckets: how many records
    /// of each curated ASN are decided.
    cursors: Vec<usize>,
}

/// One slot's rule, latency bucket and cursor during a replay.
struct Lane<'a> {
    rule: AsnRule,
    bucket: &'a [f64],
    cursor: usize,
    accepted: u64,
}

impl AcceptState {
    /// A state that has decided nothing (first snapshot re-derives).
    pub fn new() -> AcceptState {
        AcceptState::default()
    }

    /// How many times the accept table shifted under this state,
    /// forcing a full re-decide. Starts at 0; the first snapshot
    /// always counts one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records decided so far (high-water index into the slot column).
    pub fn decided(&self) -> usize {
        self.decided
    }

    /// Can the current state absorb new records under `table`, or must
    /// the stream be re-decided? True iff the freshly derived table
    /// equals the stored one and the pass shape (dense / latencies)
    /// matches.
    pub(crate) fn compatible(&self, table: &AcceptTable, opts: StreamOptions) -> bool {
        self.table.as_ref() == Some(table)
            && self.opts.dense_acceptance == opts.dense_acceptance
            && self.opts.operator_latencies == opts.operator_latencies
    }

    /// Start a new epoch under `table`: drop all decisions, keep the
    /// epoch counter monotone. The next [`AcceptState::replay`] decides
    /// from record 0.
    pub(crate) fn reset(&mut self, table: AcceptTable, opts: StreamOptions) {
        self.epoch += 1;
        self.pass = AcceptPass::empty(opts);
        self.table = Some(table);
        self.opts = opts;
        self.decided = 0;
        self.cursors.clear();
    }

    /// Decide the records of `stats` past the `decided` high-water mark
    /// under the stored table, in record order. `stats` must hold every
    /// record the earlier replays since the last [`AcceptState::reset`]
    /// decided, as a prefix: statistics only ever grow by appending
    /// ([`CorpusStats::merge`] and the folds do), so the cursors stay
    /// valid. Does nothing before the first reset.
    pub(crate) fn replay(&mut self, stats: &CorpusStats) {
        let Some(table) = self.table.as_ref() else {
            return;
        };
        let mut lanes: Vec<Lane<'_>> = table
            .asns
            .iter()
            .zip(&table.rules)
            .enumerate()
            .map(|(slot, (asn, &rule))| Lane {
                rule,
                bucket: stats.by_asn.get(asn).map_or(&[], Vec::as_slice),
                cursor: self.cursors.get(slot).copied().unwrap_or(0),
                accepted: 0,
            })
            .collect();
        let AcceptPass {
            counts,
            bitmap,
            dense,
            latencies,
        } = &mut self.pass;
        let slots = stats.slots.get(self.decided..).unwrap_or_default();
        if let Some(dense) = dense.as_mut() {
            dense.reserve(slots.len());
        }
        if let Some(by_op) = latencies.as_mut() {
            // Size each operator's samples for its buckets' undecided
            // tails, an upper bound on what it accepts: regrowing a large
            // vector next to the resident statistics would briefly hold
            // both copies.
            let mut tails: BTreeMap<Operator, usize> = BTreeMap::new();
            for lane in &lanes {
                if let Some(op) = lane.rule.operator() {
                    *tails.entry(op).or_default() += lane.bucket.len().saturating_sub(lane.cursor);
                }
            }
            for (op, tail) in tails {
                by_op.entry(op).or_default().reserve(tail);
            }
        }
        let mut rest = slots;
        while let Some((&slot, after)) = rest.split_first() {
            // An unmapped slot has no lane: its records are rejected
            // without a latency.
            let lane = lanes.get_mut(usize::from(slot));
            match lane.as_ref().map_or(Some(None), |lane| lane.rule.fixed()) {
                // A rule that reads no latency settles the slot's whole
                // run at once.
                Some(decision) => {
                    let n = 1 + after.iter().take_while(|&&next| next == slot).count();
                    rest = after.get(n - 1..).unwrap_or_default();
                    bitmap.push_run(decision.is_some(), n);
                    if let Some(dense) = dense.as_mut() {
                        dense.extend(iter::repeat_n(decision, n));
                    }
                    let Some(lane) = lane else {
                        continue;
                    };
                    let tail = lane.bucket.get(lane.cursor..).unwrap_or_default();
                    lane.cursor += n;
                    let Some(op) = decision else {
                        continue;
                    };
                    lane.accepted += n as u64;
                    if let Some(by_op) = latencies.as_mut() {
                        // The bucket covers the run while the slot column
                        // and the buckets grow together; a latency past
                        // its end reads as NaN, as record by record.
                        let lats = tail.get(..n).unwrap_or(tail);
                        let out = by_op.entry(op).or_default();
                        out.extend_from_slice(lats);
                        if lats.len() < n {
                            out.resize(out.len() + n - lats.len(), f64::NAN);
                        }
                    }
                }
                // The latency rules decide record by record, without
                // looking for the end of the run: a one-record run costs
                // what the record costs.
                None => {
                    rest = after;
                    let decision = lane.and_then(|lane| {
                        let lat = lane.bucket.get(lane.cursor).copied().unwrap_or(f64::NAN);
                        lane.cursor += 1;
                        let decision = lane.rule.decide(lat);
                        lane.accepted += u64::from(decision.is_some());
                        if let Some((by_op, op)) = latencies.as_mut().zip(decision) {
                            by_op.entry(op).or_default().push(lat);
                        }
                        decision
                    });
                    bitmap.push(decision.is_some());
                    if let Some(dense) = dense.as_mut() {
                        dense.push(decision);
                    }
                }
            }
        }
        if let Some(by_op) = latencies.as_mut() {
            // Operators that accepted nothing keep no entry.
            by_op.retain(|_, lats| !lats.is_empty());
        }
        for lane in lanes.iter().filter(|lane| lane.accepted > 0) {
            if let Some(op) = lane.rule.operator() {
                *counts.entry(op).or_default() += lane.accepted;
            }
        }
        self.cursors = lanes.iter().map(|lane| lane.cursor).collect();
        self.decided += slots.len();
    }

    /// The accumulated pass outputs.
    pub(crate) fn pass(&self) -> &AcceptPass {
        &self.pass
    }

    /// The accumulated pass outputs, by value.
    pub(crate) fn into_pass(self) -> AcceptPass {
        self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn_map::map_asns;
    use sno_types::records::NdtRecord;
    use sno_types::OrbitClass;

    /// Decide one record row-at-a-time, re-deriving mapping, verdict and
    /// threshold per row: the reference the per-ASN [`AcceptTable`] is
    /// checked against.
    fn row_accept(
        rec: &NdtRecord,
        mapping: &AsnMapping,
        verdicts: &BTreeMap<Asn, AsnVerdict>,
        thresholds: &BTreeMap<Operator, f64>,
        default_threshold: f64,
    ) -> Option<Operator> {
        let op = mapping.operator_of(rec.asn)?;
        // ASNs whose latency profile contradicts the technology are out
        // wholesale (corporate networks, broken hybrids).
        if matches!(verdicts.get(&rec.asn), Some(AsnVerdict::Outlier(_))) {
            return None;
        }
        match sno_registry::sources::access_of(op) {
            // LEO operators are identified at ASN granularity; stage 3
            // already removed the bad ASNs.
            AccessKind::Satellite(OrbitClass::Leo) => Some(op),
            // The MEO operator likewise, with the regime floor as a
            // sanity cut.
            AccessKind::Satellite(OrbitClass::Meo) => {
                (rec.latency_p5.0 > MEO_FLOOR_MS).then_some(op)
            }
            // GEO and hybrid operators go through the relaxed filter.
            _ => {
                let threshold = thresholds.get(&op).copied().unwrap_or(default_threshold);
                (rec.latency_p5.0 >= threshold).then_some(op)
            }
        }
    }

    /// Replay every record of `stats` one at a time under `table`: the
    /// per-record walk the run-wise [`AcceptState::replay`] is checked
    /// against. Each record reads its slot's next latency (NaN past the
    /// bucket's end) and its rule decides it.
    fn replay_record_by_record(
        table: &AcceptTable,
        stats: &CorpusStats,
        opts: StreamOptions,
    ) -> AcceptPass {
        let mut pass = AcceptPass::empty(opts);
        let mut cursors = vec![0usize; table.rules.len()];
        for &slot in &stats.slots {
            let i = usize::from(slot);
            let decision = table.rules.get(i).and_then(|rule| {
                let bucket = stats
                    .by_asn
                    .get(&table.asns[i])
                    .map_or(&[][..], Vec::as_slice);
                let lat = bucket.get(cursors[i]).copied().unwrap_or(f64::NAN);
                cursors[i] += 1;
                let decision = rule.decide(lat);
                if let (Some(op), Some(by_op)) = (decision, pass.latencies.as_mut()) {
                    by_op.entry(op).or_default().push(lat);
                }
                decision
            });
            if let Some(op) = decision {
                *pass.counts.entry(op).or_default() += 1;
            }
            pass.bitmap.push(decision.is_some());
            if let Some(dense) = pass.dense.as_mut() {
                dense.push(decision);
            }
        }
        pass
    }

    /// Everything an [`AcceptPass`] holds, comparable bit for bit: the
    /// bitmap's words (through `Debug`), each bit, its length and count,
    /// the counts, the dense vector and the latencies' bit patterns.
    type PassBits = (
        String,
        Vec<bool>,
        usize,
        usize,
        BTreeMap<Operator, u64>,
        Option<Vec<Option<Operator>>>,
        Option<BTreeMap<Operator, Vec<u64>>>,
    );

    fn pass_bits(pass: &AcceptPass) -> PassBits {
        let bitmap = &pass.bitmap;
        let latencies = pass.latencies.as_ref().map(|by_op| {
            by_op
                .iter()
                .map(|(&op, lats)| (op, lats.iter().map(|l| l.to_bits()).collect()))
                .collect()
        });
        (
            format!("{bitmap:?}"),
            (0..bitmap.len()).map(|i| bitmap.get(i)).collect(),
            bitmap.len(),
            bitmap.count_ones(),
            pass.counts.clone(),
            pass.dense.clone(),
            latencies,
        )
    }

    #[test]
    fn index_matches_linear_operator_of() {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        // Every curated ASN, plus unmapped probes around them.
        for asns in mapping.mapping.values() {
            for &asn in asns {
                assert_eq!(index.get(asn), mapping.operator_of(asn), "{asn:?}");
                assert_eq!(
                    index.get(Asn(asn.0 + 1_000_000)),
                    mapping.operator_of(Asn(asn.0 + 1_000_000))
                );
            }
        }
        assert_eq!(index.get(Asn(398101)), None);
    }

    #[test]
    fn prefix_op_skips_leo_and_unmapped() {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        for asns in mapping.mapping.values() {
            for &asn in asns {
                let op = mapping.operator_of(asn).expect("curated");
                let expect =
                    (!sno_registry::sources::access_of(op).includes(OrbitClass::Leo)).then_some(op);
                assert_eq!(index.prefix_op(index.slot(asn)), expect, "{asn:?}");
            }
        }
        assert_eq!(index.prefix_op(index.slot(Asn(398101))), None);
        assert_eq!(index.prefix_op(UNMAPPED), None);
    }

    #[test]
    fn table_rules_follow_the_slot_order() {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        // The curated mapping's 67 ASNs take distinct slots below the
        // unmapped marker.
        assert_eq!(mapping.asn_count(), 67);
        assert_eq!(index.asns.len(), 67);
        assert!(index.asns.len() < usize::from(UNMAPPED));
        // No outlier verdicts: every rule names its ASN's operator, so
        // rule i belongs to the ASN on slot i.
        let table = AcceptTable::build(&mapping, &BTreeMap::new(), &BTreeMap::new(), 527.0);
        assert_eq!(table.asns, index.asns);
        assert_eq!(table.rules.len(), index.asns.len());
        for (i, (&asn, rule)) in index.asns.iter().zip(&table.rules).enumerate() {
            assert_eq!(usize::from(index.slot(asn)), i, "{asn:?}");
            assert_eq!(rule.operator(), index.get(asn), "{asn:?}");
        }
        assert_eq!(index.slot(Asn(398101)), UNMAPPED);
    }

    #[test]
    fn table_decisions_match_row_accept_on_a_real_corpus() {
        use crate::pipeline::Pipeline;
        let mut records = sno_synth::MlabGenerator::new(sno_synth::SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..sno_synth::SynthConfig::test_corpus()
        })
        .generate()
        .records;
        // A few unmapped records exercise the replay's unmapped slot.
        for rec in records.iter_mut().step_by(97) {
            rec.asn = Asn(398101);
        }
        let report = Pipeline::new().run(&records);
        let verdict_of: BTreeMap<Asn, AsnVerdict> = report
            .profiles
            .iter()
            .map(|p| (p.asn, p.verdict.clone()))
            .collect();
        let table = AcceptTable::build(
            &report.mapping,
            &verdict_of,
            &report.thresholds,
            report.default_threshold,
        );
        let dense = report.accepted.as_deref().expect("run keeps it");
        assert_eq!(dense.len(), records.len());
        for (rec, want) in records.iter().zip(dense) {
            let got = table.decide(rec.asn, rec.latency_p5.0);
            assert_eq!(got, *want, "{rec:?}");
            // And both agree with the row-at-a-time reference.
            let row = row_accept(
                rec,
                &report.mapping,
                &verdict_of,
                &report.thresholds,
                report.default_threshold,
            );
            assert_eq!(got, row, "{rec:?}");
        }
    }

    #[test]
    fn latency_boundaries_follow_the_row_comparisons() {
        let mapping = map_asns();
        let verdicts = BTreeMap::new();
        let mut thresholds = BTreeMap::new();
        thresholds.insert(Operator::Viasat, 548.9);
        let table = AcceptTable::build(&mapping, &verdicts, &thresholds, 527.0);
        // Relaxed GEO thresholds are inclusive (>=).
        let viasat_asn = mapping.mapping[&Operator::Viasat][0];
        assert_eq!(table.decide(viasat_asn, 548.9), Some(Operator::Viasat));
        assert_eq!(table.decide(viasat_asn, 548.89), None);
        // The MEO floor is exclusive (>).
        let o3b_asn = mapping.mapping[&Operator::O3b][0];
        assert_eq!(table.decide(o3b_asn, MEO_FLOOR_MS), None);
        assert_eq!(
            table.decide(o3b_asn, MEO_FLOOR_MS + 0.001),
            Some(Operator::O3b)
        );
        // Unmapped ASNs never match.
        assert_eq!(table.decide(Asn(398101), 600.0), None);
    }

    #[test]
    fn run_wise_replay_matches_the_record_by_record_walk() {
        // One ASN per rule: a LEO ASN (`Accept`), an ASN with an outlier
        // verdict (`Reject`), the MEO floor (`AboveExclusive`), a relaxed
        // threshold (`AtLeast`) and an unmapped ASN. Each gets runs of 1,
        // 63, 64, 65 and 130 records, back to back, so runs start at many
        // offsets within a bitmap word. The latencies sit on, just below
        // and above each threshold, with NaNs of either sign.
        let mapping = map_asns();
        let viasat = mapping.mapping[&Operator::Viasat][0];
        let (accept, reject, meo, unmapped) = (Asn(14593), Asn(27277), Asn(60725), Asn(398101));
        let verdicts = BTreeMap::from([(reject, AsnVerdict::Outlier("test"))]);
        let thresholds = BTreeMap::from([(Operator::Viasat, 548.9)]);
        let table = AcceptTable::build(&mapping, &verdicts, &thresholds, 527.0);
        let index = AsnOps::new(&mapping);
        let rule = |asn| table.rules.get(usize::from(index.slot(asn))).copied();
        assert_eq!(rule(accept), Some(AsnRule::Accept(Operator::Starlink)));
        assert_eq!(rule(reject), Some(AsnRule::Reject));
        assert_eq!(
            rule(meo),
            Some(AsnRule::AboveExclusive(Operator::O3b, MEO_FLOOR_MS))
        );
        assert_eq!(
            rule(viasat),
            Some(AsnRule::AtLeast(Operator::Viasat, 548.9))
        );
        assert_eq!(rule(unmapped), None);
        let lats = [
            MEO_FLOOR_MS,
            548.9,
            f64::NAN,
            MEO_FLOOR_MS + 0.001,
            548.89,
            -f64::NAN,
            35.0,
            600.0,
        ];
        let mut records: Vec<(Asn, f64)> = Vec::new();
        for len in [1usize, 63, 64, 65, 130] {
            for asn in [accept, reject, meo, viasat, unmapped] {
                let at = records.len();
                records.extend((at..at + len).map(|i| (asn, lats[i % lats.len()])));
            }
        }
        let stats_of = |records: &[(Asn, f64)]| {
            let mut stats = CorpusStats::new();
            for &(asn, lat) in records {
                stats.records += 1;
                stats.slots.push(index.slot(asn));
                stats.by_asn.entry(asn).or_default().push(lat);
            }
            stats
        };
        let n = records.len();
        for dense_acceptance in [false, true] {
            for operator_latencies in [false, true] {
                let opts = StreamOptions {
                    dense_acceptance,
                    operator_latencies,
                    ..StreamOptions::default()
                };
                // Whole, one record at a time, and in steps whose cut
                // falls mid-run and mid-word, and on word boundaries.
                for step in [n, 1, 37, 64, 100] {
                    let mut state = AcceptState::new();
                    state.reset(table.clone(), opts);
                    let mut cut = 0;
                    while cut < n {
                        cut = (cut + step).min(n);
                        let stats = stats_of(&records[..cut]);
                        state.replay(&stats);
                        assert_eq!(state.decided(), cut);
                        assert_eq!(
                            pass_bits(state.pass()),
                            pass_bits(&replay_record_by_record(&table, &stats, opts)),
                            "{opts:?} step {step} cut {cut}"
                        );
                    }
                }
            }
        }
    }
}
