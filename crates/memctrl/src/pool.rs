//! Slab-backed request pool with per-bank indexed ready lists.
//!
//! [`RequestQueue`] replaces the controller's flat `Vec<Pending>` — and
//! with it the O(queue-depth) scan every scheduler used to run every
//! cycle. Requests live in a slab (stable [`ReqId`] handles, free-list
//! reuse, no per-request allocation in steady state) and are threaded
//! onto intrusive doubly-linked lists:
//!
//! * one **global list** ordered by `(arrival, id, seq)` — the FCFS
//!   order, whose head is the oldest request, with the slab sequence
//!   number `seq` breaking ties exactly as the issue requires;
//! * per-bank **class lists** (`flat_bank` × {hit-read, hit-write,
//!   other-read, other-write}), each in the same order.
//!
//! "Hit" is classified against the bank's cached `tag` — the open row
//! the bucketing was computed against. Tags are validated **lazily**: a
//! view build compares each occupied bank's tag with the live DRAM open
//! row and rebuckets only the banks that changed (issue, refresh,
//! reliability mutation — any source, no hooks required). Within a
//! bank, every member of a class needs the same next command, and DRAM
//! timing depends only on (channel, rank, bank, command kind), so a
//! class is issuable as a whole and its head is the exact
//! `(arrival, id)` minimum. That is what makes the **frontier** view
//! ([`ViewMode::Frontier`]) — class-list heads only — bit-identical to
//! the legacy full scan for every policy whose sort key is constant
//! within a class (FR-FCFS and all RL actions), at O(banks) instead of
//! O(queue-depth) per decision.
//!
//! The same structure answers the simulation engine's wake-up question
//! exactly: [`RequestQueue::next_issue_at`] is the first cycle at which
//! a view would hold a candidate, one gate per non-empty class under the
//! open-page rule. It needs no current tags: a bank whose open row moved
//! since the last view build is classified afresh for the query alone.

use ia_dram::{Cycle, DramModule};

use crate::request::Pending;

/// Sentinel link ("null pointer") in the intrusive lists.
const NONE: u32 = u32::MAX;
/// Sentinel bank tag for "no row open" (rows are bounded by
/// `rows_per_bank`, so `u64::MAX` is never a real row).
const NO_ROW: u64 = u64::MAX;

const HIT_READ: usize = 0;
const HIT_WRITE: usize = 1;
const OTHER_READ: usize = 2;
const OTHER_WRITE: usize = 3;

/// Class-list index of `p` in a bank whose open row is `tag`.
fn class_of(p: &Pending, tag: u64) -> usize {
    let hit = tag != NO_ROW && p.loc.row == tag;
    match (hit, p.request.kind.is_read()) {
        (true, true) => HIT_READ,
        (true, false) => HIT_WRITE,
        (false, true) => OTHER_READ,
        (false, false) => OTHER_WRITE,
    }
}

/// Stable handle to a queued request (a slab slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(u32);

impl ReqId {
    /// The raw slab index (diagnostics only — slots are reused).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// How much of a view a scheduler needs per decision.
///
/// The mode is also the controller's wake-up contract: the controller
/// sleeps until [`RequestQueue::next_issue_at`] for this mode, so a
/// policy must never pick a request the mode's bound does not cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// No view at all. The policy serves only [`RequestQueue::head`]
    /// (FCFS), and the controller wakes only when the head's next
    /// command can issue; picking any other request is a contract
    /// violation (a `debug_assert!` in the controller's tick).
    Skip,
    /// Class-list heads only — exact for policies whose key is constant
    /// within a (bank, class): FR-FCFS, all RL actions.
    Frontier,
    /// Every issuable request — required by thread-keyed policies
    /// (PAR-BS, ATLAS, TCM, BLISS) whose key varies within a class.
    Full,
}

/// Per-cycle scheduling facts, computed from the indexed lists by
/// [`RequestQueue::build_view`] — the successor of the linear-scan
/// [`crate::scheduler::linear_issue_view`] (kept as the differential
/// oracle).
#[derive(Debug, Clone, Default)]
pub struct IssueView {
    /// Issuable candidates under the open-page rule, each with its
    /// row-hit flag. In [`ViewMode::Frontier`] these are class heads; in
    /// [`ViewMode::Full`] the complete issuable set.
    pub ready: Vec<(ReqId, bool)>,
    /// Number of queued requests (issuable or not) whose next command is
    /// a column command — the occupancy signal RL-class policies use.
    pub row_hits: usize,
}

impl IssueView {
    /// Empties the view (keeps capacity).
    pub fn clear(&mut self) {
        self.ready.clear();
        self.row_hits = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    p: Pending,
    /// Slab sequence number: monotone per insertion, the final ordering
    /// tie-break.
    seq: u64,
    /// Dense bank key (`Location::flat_bank`) the slot is bucketed under.
    bank: u32,
    /// Class-list index (`HIT_READ`… ), meaningless when free.
    class: u8,
    live: bool,
    g_prev: u32,
    g_next: u32,
    b_prev: u32,
    b_next: u32,
}

#[derive(Debug, Clone, Copy)]
struct BankLists {
    head: [u32; 4],
    tail: [u32; 4],
    len: [u32; 4],
    /// Open row the current bucketing assumed (`NO_ROW` = closed).
    tag: u64,
    /// Position in `occupied`, `NONE` when the bank holds no requests.
    pos: u32,
}

impl BankLists {
    const EMPTY: BankLists = BankLists {
        head: [NONE; 4],
        tail: [NONE; 4],
        len: [0; 4],
        tag: NO_ROW,
        pos: NONE,
    };

    fn members(&self) -> u32 {
        self.len.iter().sum()
    }

    fn hits(&self) -> u32 {
        self.len[HIT_READ] + self.len[HIT_WRITE]
    }
}

/// The indexed request queue. See the module docs for the design.
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    slots: Vec<Slot>,
    free_head: u32,
    g_head: u32,
    g_tail: u32,
    len: usize,
    /// Queued write requests (O(1) for the RL state vector).
    writes: usize,
    /// Queued requests with the PAR-BS batch mark set.
    batched: usize,
    next_seq: u64,
    banks: Vec<BankLists>,
    /// Dense list of bank keys holding at least one request.
    occupied: Vec<u32>,
    /// Reused rebucket scratch.
    scratch: Vec<u32>,
}

impl RequestQueue {
    /// Creates an empty queue. Bank tables grow on demand from the
    /// requests' decoded coordinates.
    #[must_use]
    pub fn new() -> Self {
        RequestQueue {
            slots: Vec::new(),
            free_head: NONE,
            g_head: NONE,
            g_tail: NONE,
            len: 0,
            writes: 0,
            batched: 0,
            next_seq: 0,
            banks: Vec::new(),
            occupied: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of queued write requests.
    #[must_use]
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// True when no queued request carries the PAR-BS batch mark.
    #[must_use]
    pub fn all_unbatched(&self) -> bool {
        self.batched == 0
    }

    /// The oldest request by `(arrival, id, seq)` — the FCFS choice.
    #[must_use]
    pub fn head(&self) -> Option<ReqId> {
        (self.g_head != NONE).then_some(ReqId(self.g_head))
    }

    /// The request behind `id`, if it is still queued.
    #[must_use]
    pub fn get(&self, id: ReqId) -> Option<&Pending> {
        self.slots
            .get(id.0 as usize)
            .filter(|s| s.live)
            .map(|s| &s.p)
    }

    /// The request behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (the request was removed).
    #[must_use]
    pub fn req(&self, id: ReqId) -> &Pending {
        let s = &self.slots[id.0 as usize];
        assert!(s.live, "stale ReqId");
        &s.p
    }

    /// Iterates the queue in global `(arrival, id, seq)` order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            q: self,
            cur: self.g_head,
        }
    }

    fn order_key(&self, slot: u32) -> (Cycle, u64, u64) {
        let s = &self.slots[slot as usize];
        (s.p.arrival, s.p.request.id, s.seq)
    }

    /// Inserts `p`, classifying it against the bank's current tag (or the
    /// live DRAM open row when the bank was empty). Amortized O(1): the
    /// ordered insertions walk backward from the tails, and arrivals/ids
    /// are monotone in normal operation.
    pub fn insert(&mut self, p: Pending, dram: &DramModule) -> ReqId {
        let bank = p.loc.flat_bank(&dram.config().geometry) as u32;
        if bank as usize >= self.banks.len() {
            self.banks.resize(bank as usize + 1, BankLists::EMPTY);
        }
        if self.banks[bank as usize].pos == NONE {
            self.banks[bank as usize].tag = dram.open_row(&p.loc).unwrap_or(NO_ROW);
            self.banks[bank as usize].pos = self.occupied.len() as u32;
            self.occupied.push(bank);
        }
        let class = class_of(&p, self.banks[bank as usize].tag);
        let read = p.request.kind.is_read();

        let slot = if self.free_head != NONE {
            let s = self.free_head;
            self.free_head = self.slots[s as usize].g_next;
            s
        } else {
            self.slots.push(Slot {
                p,
                seq: 0,
                bank: 0,
                class: 0,
                live: false,
                g_prev: NONE,
                g_next: NONE,
                b_prev: NONE,
                b_next: NONE,
            });
            (self.slots.len() - 1) as u32
        };
        {
            let s = &mut self.slots[slot as usize];
            s.p = p;
            s.seq = self.next_seq;
            s.bank = bank;
            s.class = class as u8;
            s.live = true;
        }
        self.next_seq += 1;
        self.len += 1;
        if !read {
            self.writes += 1;
        }
        if p.batched {
            self.batched += 1;
        }
        self.link_global(slot);
        self.link_bank(slot, bank, class);
        ReqId(slot)
    }

    /// Removes and returns the request behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: ReqId) -> Pending {
        let slot = id.0;
        let s = self.slots[slot as usize];
        assert!(s.live, "stale ReqId");
        self.unlink_global(slot);
        self.unlink_bank(slot, s.bank, s.class as usize);
        if self.banks[s.bank as usize].members() == 0 {
            let pos = self.banks[s.bank as usize].pos;
            self.banks[s.bank as usize].pos = NONE;
            self.occupied.swap_remove(pos as usize);
            if (pos as usize) < self.occupied.len() {
                let moved = self.occupied[pos as usize];
                self.banks[moved as usize].pos = pos;
            }
        }
        let st = &mut self.slots[slot as usize];
        st.live = false;
        st.g_next = self.free_head;
        self.free_head = slot;
        self.len -= 1;
        if !s.p.request.kind.is_read() {
            self.writes -= 1;
        }
        if s.p.batched {
            self.batched -= 1;
        }
        s.p
    }

    /// Marks that the controller issued the first command for `id`.
    pub fn set_started(&mut self, id: ReqId) {
        let s = &mut self.slots[id.0 as usize];
        assert!(s.live, "stale ReqId");
        s.p.started = true;
    }

    /// Walks the queue in global order, setting the PAR-BS batch mark on
    /// every request for which `mark` returns true. Only unmarked
    /// requests are offered.
    pub fn mark_batch(&mut self, mut mark: impl FnMut(&Pending) -> bool) {
        let mut cur = self.g_head;
        while cur != NONE {
            let s = &mut self.slots[cur as usize];
            if !s.p.batched && mark(&s.p) {
                s.p.batched = true;
                self.batched += 1;
            }
            cur = s.g_next;
        }
    }

    fn link_global(&mut self, slot: u32) {
        let key = self.order_key(slot);
        // Walk backward from the tail: arrivals and ids are normally
        // monotone, so this is O(1) in steady state.
        let mut after = self.g_tail;
        while after != NONE && self.order_key(after) > key {
            after = self.slots[after as usize].g_prev;
        }
        let next = if after == NONE {
            self.g_head
        } else {
            self.slots[after as usize].g_next
        };
        self.slots[slot as usize].g_prev = after;
        self.slots[slot as usize].g_next = next;
        if after == NONE {
            self.g_head = slot;
        } else {
            self.slots[after as usize].g_next = slot;
        }
        if next == NONE {
            self.g_tail = slot;
        } else {
            self.slots[next as usize].g_prev = slot;
        }
    }

    fn unlink_global(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.g_prev, s.g_next)
        };
        if prev == NONE {
            self.g_head = next;
        } else {
            self.slots[prev as usize].g_next = next;
        }
        if next == NONE {
            self.g_tail = prev;
        } else {
            self.slots[next as usize].g_prev = prev;
        }
    }

    fn link_bank(&mut self, slot: u32, bank: u32, class: usize) {
        let key = self.order_key(slot);
        let b = &self.banks[bank as usize];
        let mut after = b.tail[class];
        while after != NONE && self.order_key(after) > key {
            after = self.slots[after as usize].b_prev;
        }
        let next = if after == NONE {
            self.banks[bank as usize].head[class]
        } else {
            self.slots[after as usize].b_next
        };
        self.slots[slot as usize].b_prev = after;
        self.slots[slot as usize].b_next = next;
        if after == NONE {
            self.banks[bank as usize].head[class] = slot;
        } else {
            self.slots[after as usize].b_next = slot;
        }
        if next == NONE {
            self.banks[bank as usize].tail[class] = slot;
        } else {
            self.slots[next as usize].b_prev = slot;
        }
        self.banks[bank as usize].len[class] += 1;
    }

    fn unlink_bank(&mut self, slot: u32, bank: u32, class: usize) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.b_prev, s.b_next)
        };
        if prev == NONE {
            self.banks[bank as usize].head[class] = next;
        } else {
            self.slots[prev as usize].b_next = next;
        }
        if next == NONE {
            self.banks[bank as usize].tail[class] = prev;
        } else {
            self.slots[next as usize].b_prev = prev;
        }
        self.banks[bank as usize].len[class] -= 1;
    }

    /// Rebuckets every member of `bank` against the new open-row `tag`.
    /// Called only when a view build finds the cached tag stale, so the
    /// cost is O(bank members) per actual bank-state change.
    fn rebucket(&mut self, bank: u32, tag: u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for class in 0..4 {
            let mut cur = self.banks[bank as usize].head[class];
            while cur != NONE {
                scratch.push(cur);
                cur = self.slots[cur as usize].b_next;
            }
        }
        let b = &mut self.banks[bank as usize];
        b.head = [NONE; 4];
        b.tail = [NONE; 4];
        b.len = [0; 4];
        b.tag = tag;
        scratch.sort_unstable_by_key(|&s| self.order_key(s));
        for &slot in &scratch {
            let class = class_of(&self.slots[slot as usize].p, tag);
            self.slots[slot as usize].class = class as u8;
            // Appending in sorted order keeps each list ordered; the
            // backward walk in link_bank terminates immediately.
            self.link_bank(slot, bank, class);
        }
        self.scratch = scratch;
    }

    /// Builds the per-cycle [`IssueView`] into `out` (a reused scratch).
    ///
    /// Validates stale bank tags, then walks only the occupied banks: per
    /// bank at most three `ready_at` queries (hit-read, hit-write, and
    /// one shared gate for the activate/precharge classes) decide the
    /// issuability of whole classes at once. The open-page rule —
    /// never precharge a bank that still has queued row hits — is the
    /// bank's own hit-list emptiness, O(1).
    pub fn build_view(
        &mut self,
        dram: &DramModule,
        now: Cycle,
        mode: ViewMode,
        out: &mut IssueView,
    ) {
        out.clear();
        if mode == ViewMode::Skip {
            return;
        }
        // One hierarchy walk per occupied bank ([`DramModule::bank_gates`])
        // fetches the open row and every command gate at once; the tag
        // check, hit accounting, and candidate emission all run off that
        // single probe. Banks are independent, so interleaving a bank's
        // validation with its emission is identical to two passes.
        for idx in 0..self.occupied.len() {
            let bank = self.occupied[idx];
            let rep = self.representative(bank);
            let loc = self.slots[rep as usize].p.loc;
            let gates = dram.bank_gates(&loc);
            let cur = gates.open_row.unwrap_or(NO_ROW);
            if cur != self.banks[bank as usize].tag {
                self.rebucket(bank, cur);
            }
            let b = self.banks[bank as usize];
            out.row_hits += b.hits() as usize;
            let open = b.tag != NO_ROW;
            if b.len[HIT_READ] > 0 && gates.read <= now {
                self.emit(out, mode, b.head[HIT_READ], true);
            }
            if b.len[HIT_WRITE] > 0 && gates.write <= now {
                self.emit(out, mode, b.head[HIT_WRITE], true);
            }
            if b.len[OTHER_READ] > 0 || b.len[OTHER_WRITE] > 0 {
                // Open-page rule: a bank with queued row hits is never
                // closed just because its next burst is a few cycles away.
                if open && b.hits() > 0 {
                    continue;
                }
                let gate = if open {
                    gates.precharge
                } else {
                    gates.activate
                };
                if gate <= now {
                    if b.len[OTHER_READ] > 0 {
                        self.emit(out, mode, b.head[OTHER_READ], false);
                    }
                    if b.len[OTHER_WRITE] > 0 {
                        self.emit(out, mode, b.head[OTHER_WRITE], false);
                    }
                }
            }
        }
    }

    /// Earliest cycle `>= now` at which a tick can issue a command for a
    /// policy of view `mode`; `None` when the queue is empty.
    ///
    /// For [`ViewMode::Frontier`] and [`ViewMode::Full`] this is the
    /// first cycle at which [`RequestQueue::build_view`] would return a
    /// non-empty view. A [`ViewMode::Skip`] policy serves only
    /// [`RequestQueue::head`], so its bound is the head's
    /// [`DramModule::next_ready_for`] alone.
    ///
    /// Exact in any tag state. A bank whose cached tag equals the live
    /// open row answers from its class sizes; a stale bank (an insert, a
    /// DRAM command, a refresh or a reliability action since the last
    /// view build) classifies its members against the live row, in
    /// O(bank members) and without rebucketing. Timing gates depend on
    /// the command kind, not its row/column operand, so each class costs
    /// one gate, and the open-page rule applies as in `build_view`: an
    /// open bank with queued hits never folds its precharge gate. The
    /// scan returns `now` at the first gate already due.
    #[must_use]
    pub fn next_issue_at(&self, dram: &DramModule, now: Cycle, mode: ViewMode) -> Option<Cycle> {
        if mode == ViewMode::Skip {
            let p = &self.slots[self.head()?.0 as usize].p;
            return Some(dram.next_ready_for(&p.loc, p.request.kind).max(now));
        }
        let mut next: Option<Cycle> = None;
        for &bank in &self.occupied {
            let b = &self.banks[bank as usize];
            let gates = dram.bank_gates(&self.slots[self.representative(bank) as usize].p.loc);
            let open = gates.open_row.unwrap_or(NO_ROW);
            let len = if open == b.tag {
                b.len
            } else {
                self.class_sizes(bank, open)
            };
            let at = match (len[HIT_READ] > 0, len[HIT_WRITE] > 0) {
                (true, true) => gates.read.min(gates.write),
                (true, false) => gates.read,
                (false, true) => gates.write,
                (false, false) if open != NO_ROW => gates.precharge,
                (false, false) => gates.activate,
            };
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Class-list sizes of `bank` if its members were bucketed against
    /// open row `tag`.
    fn class_sizes(&self, bank: u32, tag: u64) -> [u32; 4] {
        let mut len = [0; 4];
        for &head in &self.banks[bank as usize].head {
            let mut cur = head;
            while cur != NONE {
                let s = &self.slots[cur as usize];
                len[class_of(&s.p, tag)] += 1;
                cur = s.b_next;
            }
        }
        len
    }

    fn emit(&self, out: &mut IssueView, mode: ViewMode, head: u32, hit: bool) {
        match mode {
            ViewMode::Skip => {}
            ViewMode::Frontier => out.ready.push((ReqId(head), hit)),
            ViewMode::Full => {
                let mut cur = head;
                while cur != NONE {
                    out.ready.push((ReqId(cur), hit));
                    cur = self.slots[cur as usize].b_next;
                }
            }
        }
    }

    fn representative(&self, bank: u32) -> u32 {
        let b = &self.banks[bank as usize];
        for class in 0..4 {
            if b.head[class] != NONE {
                return b.head[class];
            }
        }
        unreachable!("occupied bank with no members");
    }
}

/// Iterator over the queue in global order (see [`RequestQueue::iter`]).
#[derive(Debug)]
pub struct Iter<'a> {
    q: &'a RequestQueue,
    cur: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (ReqId, &'a Pending);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NONE {
            return None;
        }
        let id = ReqId(self.cur);
        let s = &self.q.slots[self.cur as usize];
        self.cur = s.g_next;
        Some((id, &s.p))
    }
}

impl<'a> IntoIterator for &'a RequestQueue {
    type Item = (ReqId, &'a Pending);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
