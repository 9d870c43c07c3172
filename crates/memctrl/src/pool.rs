//! Slab-backed request pool with per-bank indexed ready lists and a
//! cache of every occupied bank's DRAM gates.
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
//! Within a bank, every member of a class needs the same next command,
//! and DRAM timing depends only on (channel, rank, bank, command kind),
//! so a class is issuable as a whole and its head is the exact
//! `(arrival, id)` minimum. That is what makes the **frontier** view
//! ([`ViewMode::Frontier`]) — class-list heads only — bit-identical to
//! the legacy full scan for every policy whose sort key is constant
//! within a class (FR-FCFS and all RL actions), at O(banks) instead of
//! O(queue-depth) per decision.
//!
//! **Gate cache.** The queue keeps the DRAM gates the view and the
//! wake-up bound are built from, so neither probes the DRAM:
//!
//! * per occupied bank, its [`LocalGates`] (open row plus bank-local
//!   deadlines) — the open row is the tag its members are classified
//!   against;
//! * per (channel, rank), its [`SharedGates`] (refresh blackout,
//!   tRRD/tFAW, data-bus gates with tWTR);
//! * per occupied bank, its **wake** cycle — the first cycle a view
//!   could emit from it under the open-page rule — split the same way:
//!   the bank's own deadline for the command its classes wait on, plus
//!   which of its rank's shared gates that command also waits on.
//!
//! A bank's own gates change only when a command goes to it; the shared
//! gates change with a command anywhere on the channel, or a refresh.
//! So the cache is kept **eagerly** in sync by the code that changes the
//! DRAM: [`RequestQueue::insert`] probes a bank when it becomes
//! occupied, [`RequestQueue::resync`] re-reads what one command changed
//! (its bank, rebucketing the members if the open row moved, and its
//! channel's shared gates — O(ranks), whatever the other banks wait
//! on), and [`RequestQueue::resync_all`] re-reads everything after a
//! refresh. Between those calls the cache answers for the DRAM state of
//! the last resync: a caller that mutates the DRAM without resyncing
//! gets views and wake-ups for the old state. A [`ViewMode::Skip`]
//! policy reads no cached gate, so the controller skips the resyncs for
//! it (see there).

use ia_dram::{BankGates, Command, Cycle, DramModule, LocalGates, Location, SharedGates};

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
    ///
    /// A Skip policy reads no cached gates, so the controller does not
    /// resync the queue's gate cache for it: it probes the DRAM for the
    /// head alone, once to pick and once to wake up. Resyncing after
    /// every command cost the FCFS fault-injection benchmark more than
    /// those two probes.
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
    /// Position in `occupied`, `NONE` when the bank holds no requests.
    pos: u32,
    /// Flat (channel, rank) key: the bank's index into `ranks`.
    rank: u32,
    /// Open row and bank-local gates as of the last probe; the open row
    /// is the tag the class lists are bucketed against.
    local: LocalGates,
    /// The bank's own part of its wake cycle (see [`own_wake`]).
    wake: Cycle,
    /// Which [`RankGates::wake`] entry the wake cycle also waits on.
    waits: u8,
}

impl BankLists {
    const EMPTY: BankLists = BankLists {
        head: [NONE; 4],
        tail: [NONE; 4],
        len: [0; 4],
        pos: NONE,
        rank: 0,
        local: LocalGates {
            open_row: None,
            activate: Cycle::ZERO,
            precharge: Cycle::ZERO,
            column: Cycle::ZERO,
        },
        wake: Cycle::ZERO,
        waits: WAIT_ACTIVATE,
    };

    fn members(&self) -> u32 {
        self.len.iter().sum()
    }

    fn hits(&self) -> u32 {
        self.len[HIT_READ] + self.len[HIT_WRITE]
    }

    fn tag(&self) -> u64 {
        self.local.open_row.unwrap_or(NO_ROW)
    }
}

// What a bank's next command waits on among its rank's shared gates:
// indices into `RankGates::wake`.
const WAIT_READ: u8 = 0;
const WAIT_WRITE: u8 = 1;
const WAIT_COLUMN: u8 = 2;
const WAIT_PRECHARGE: u8 = 3;
const WAIT_ACTIVATE: u8 = 4;

/// The own part of `b`'s wake cycle, and what it waits on besides: the
/// first cycle a view could emit a member is the own part joined with
/// the rank's `wake[waits]`. Under the open-page rule an open bank with
/// queued hits waits for a column command and never folds its precharge
/// gate. Joining per kind equals [`BankGates::combine`] first: the
/// refresh blackout bounds every kind, and `max` distributes over the
/// `min` of the read and write gates.
fn own_wake(b: &BankLists) -> (Cycle, u8) {
    let l = &b.local;
    match (b.len[HIT_READ] > 0, b.len[HIT_WRITE] > 0) {
        (true, true) => (l.column, WAIT_COLUMN),
        (true, false) => (l.column, WAIT_READ),
        (false, true) => (l.column, WAIT_WRITE),
        (false, false) if l.open_row.is_some() => (l.precharge, WAIT_PRECHARGE),
        (false, false) => (l.activate, WAIT_ACTIVATE),
    }
}

/// One (channel, rank)'s shared gates, with the part of a bank's wake
/// cycle they contribute folded per `WAIT_*` kind.
#[derive(Debug, Clone, Copy)]
struct RankGates {
    gates: SharedGates,
    wake: [Cycle; 5],
}

impl RankGates {
    fn new(gates: SharedGates) -> Self {
        let r = gates.refresh_until;
        RankGates {
            gates,
            wake: [
                gates.read.max(r),
                gates.write.max(r),
                gates.read.min(gates.write).max(r),
                r,
                gates.activate.max(r),
            ],
        }
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
    /// Queued requests whose next command is a column command.
    hits: usize,
    banks: Vec<BankLists>,
    /// Dense list of bank keys holding at least one request.
    occupied: Vec<u32>,
    /// Shared gates per flat (channel, rank) key, for every rank up to
    /// the highest one a request has named.
    ranks: Vec<RankGates>,
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
            hits: 0,
            banks: Vec::new(),
            occupied: Vec::new(),
            ranks: Vec::new(),
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

    /// Inserts `p`, classifying it against its bank's cached open row.
    /// A bank that becomes occupied is probed once
    /// ([`DramModule::local_gates`]), and a (channel, rank) seen for the
    /// first time once ([`DramModule::shared_gates`]). Amortized O(1):
    /// the ordered insertions walk backward from the tails, and
    /// arrivals/ids are monotone in normal operation.
    pub fn insert(&mut self, p: Pending, dram: &DramModule) -> ReqId {
        let geo = &dram.config().geometry;
        let bank = p.loc.flat_bank(geo) as u32;
        if bank as usize >= self.banks.len() {
            self.banks.resize(bank as usize + 1, BankLists::EMPTY);
        }
        if self.banks[bank as usize].pos == NONE {
            let rank = bank / geo.banks_per_rank() as u32;
            while self.ranks.len() <= rank as usize {
                let key = self.ranks.len();
                let gates = dram.shared_gates(key / geo.ranks, key % geo.ranks);
                self.ranks.push(RankGates::new(gates));
            }
            let b = &mut self.banks[bank as usize];
            b.rank = rank;
            b.local = dram.local_gates(&p.loc);
            b.pos = self.occupied.len() as u32;
            self.occupied.push(bank);
        }
        let class = class_of(&p, self.banks[bank as usize].tag());
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
        self.rewake(bank);
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
        } else {
            self.rewake(s.bank);
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
        if class <= HIT_WRITE {
            self.hits += 1;
        }
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
        if class <= HIT_WRITE {
            self.hits -= 1;
        }
    }

    /// Re-reads occupied `bank`'s own gates (`loc` names the bank) and
    /// rebuckets its members if the open row moved: the old row's hits
    /// fall back to the other-row lists, then the new row's members move
    /// up to the hit lists. Each move is an ordered re-link, so the cost
    /// is O(bank members) per actual row change and nothing otherwise.
    fn reprobe(&mut self, dram: &DramModule, bank: u32, loc: &Location) {
        let b = &mut self.banks[bank as usize];
        let old = b.local.open_row;
        b.local = dram.local_gates(loc);
        let new = b.local.open_row;
        if new == old {
            return;
        }
        if old.is_some() {
            for hit in [HIT_READ, HIT_WRITE] {
                loop {
                    let slot = self.banks[bank as usize].head[hit];
                    if slot == NONE {
                        break;
                    }
                    self.relink(slot, bank, hit, hit + OTHER_READ);
                }
            }
        }
        if let Some(row) = new {
            for other in [OTHER_READ, OTHER_WRITE] {
                let mut cur = self.banks[bank as usize].head[other];
                while cur != NONE {
                    let next = self.slots[cur as usize].b_next;
                    if self.slots[cur as usize].p.loc.row == row {
                        // Walking in order appends in order: link_bank's
                        // backward walk stops at once.
                        self.relink(cur, bank, other, other - OTHER_READ);
                    }
                    cur = next;
                }
            }
        }
    }

    /// Moves `slot` from class list `from` of `bank` to class list `to`.
    fn relink(&mut self, slot: u32, bank: u32, from: usize, to: usize) {
        self.unlink_bank(slot, bank, from);
        self.slots[slot as usize].class = to as u8;
        self.link_bank(slot, bank, to);
    }

    /// The cached combined gates of an occupied bank.
    fn gates(&self, b: &BankLists) -> BankGates {
        BankGates::combine(&b.local, &self.ranks[b.rank as usize].gates)
    }

    /// The cached wake cycle of an occupied bank: the first cycle a view
    /// could emit one of its members.
    fn wake(&self, b: &BankLists) -> Cycle {
        b.wake
            .max(self.ranks[b.rank as usize].wake[usize::from(b.waits)])
    }

    /// Recomputes the own part of occupied `bank`'s wake cycle.
    fn rewake(&mut self, bank: u32) {
        let b = &mut self.banks[bank as usize];
        (b.wake, b.waits) = own_wake(b);
    }

    /// Re-reads the gates a DRAM command to `loc` can have changed: the
    /// bank's own gates (one probe, if the bank is occupied, rebucketing
    /// its members if its open row moved) and the shared gates of every
    /// rank on `loc.channel` (they share its data bus). Other banks' own
    /// gates cannot change, and their wake cycles read the shared gates
    /// afresh. The controller calls it once per issued command; a tick
    /// that issues nothing resyncs nothing.
    pub fn resync(&mut self, dram: &DramModule, loc: &Location) {
        let geo = &dram.config().geometry;
        let bank = loc.flat_bank(geo);
        if self.banks.get(bank).is_some_and(|b| b.pos != NONE) {
            self.reprobe(dram, bank as u32, loc);
            self.rewake(bank as u32);
        }
        let lo = loc.channel * geo.ranks;
        let hi = (lo + geo.ranks).min(self.ranks.len());
        for key in lo..hi {
            self.ranks[key] = RankGates::new(dram.shared_gates(loc.channel, key - lo));
        }
    }

    /// Re-reads every cached gate: every (channel, rank)'s shared gates
    /// and every occupied bank's own, rebucketing banks whose open row
    /// moved. For DRAM changes that span ranks — the controller calls it
    /// after a refresh, before the same tick's view build.
    pub fn resync_all(&mut self, dram: &DramModule) {
        let ranks = dram.config().geometry.ranks;
        for key in 0..self.ranks.len() {
            self.ranks[key] = RankGates::new(dram.shared_gates(key / ranks, key % ranks));
        }
        for idx in 0..self.occupied.len() {
            let bank = self.occupied[idx];
            let loc = self.slots[self.representative(bank) as usize].p.loc;
            self.reprobe(dram, bank, &loc);
            self.rewake(bank);
        }
    }

    /// True when every occupied bank's cached gates and tag equal a
    /// fresh [`DramModule::bank_gates`] probe and its members, wake
    /// cycle and the hit count agree with them — the invariant every
    /// resync restores (checked by the controller in debug builds).
    pub(crate) fn cache_matches(&self, dram: &DramModule) -> bool {
        let mut hits = 0;
        for &bank in &self.occupied {
            let b = &self.banks[bank as usize];
            let gates = self.gates(b);
            let loc = self.slots[self.representative(bank) as usize].p.loc;
            let wake = match (b.len[HIT_READ] > 0, b.len[HIT_WRITE] > 0) {
                (true, true) => gates.read.min(gates.write),
                (true, false) => gates.read,
                (false, true) => gates.write,
                (false, false) if gates.open_row.is_some() => gates.precharge,
                (false, false) => gates.activate,
            };
            if gates != dram.bank_gates(&loc)
                || (b.wake, b.waits) != own_wake(b)
                || self.wake(b) != wake
            {
                return false;
            }
            for &head in &b.head {
                let mut cur = head;
                while cur != NONE {
                    let s = &self.slots[cur as usize];
                    if usize::from(s.class) != class_of(&s.p, b.tag()) {
                        return false;
                    }
                    cur = s.b_next;
                }
            }
            hits += b.hits() as usize;
        }
        hits == self.hits
    }

    /// Builds the per-cycle [`IssueView`] into `out` (a reused scratch)
    /// from the gate cache, without touching the DRAM.
    ///
    /// Walks the occupied banks and skips every one whose wake cycle is
    /// still ahead. For the rest, the cached gates decide the
    /// issuability of whole classes at once. The open-page rule — never
    /// precharge a bank that still has queued row hits — is the bank's
    /// own hit-list emptiness, O(1).
    pub fn build_view(&self, now: Cycle, mode: ViewMode, out: &mut IssueView) {
        out.clear();
        if mode == ViewMode::Skip {
            return;
        }
        out.row_hits = self.hits;
        for &bank in &self.occupied {
            let b = &self.banks[bank as usize];
            if self.wake(b) > now {
                continue;
            }
            if b.hits() > 0 {
                // Open-page rule: a bank with queued row hits is never
                // closed just because its next burst is a few cycles away.
                let gates = self.gates(b);
                if b.len[HIT_READ] > 0 && gates.read <= now {
                    self.emit(out, mode, b.head[HIT_READ], true);
                }
                if b.len[HIT_WRITE] > 0 && gates.write <= now {
                    self.emit(out, mode, b.head[HIT_WRITE], true);
                }
            } else {
                // The wake cycle is the bank's precharge (open) or
                // activate (closed) gate, and it is due.
                if b.len[OTHER_READ] > 0 {
                    self.emit(out, mode, b.head[OTHER_READ], false);
                }
                if b.len[OTHER_WRITE] > 0 {
                    self.emit(out, mode, b.head[OTHER_WRITE], false);
                }
            }
        }
    }

    /// Earliest cycle `>= now` at which a tick can issue a command for a
    /// policy of view `mode`; `None` when the queue is empty.
    ///
    /// For [`ViewMode::Frontier`] and [`ViewMode::Full`] this is the
    /// first cycle at which [`RequestQueue::build_view`] would return a
    /// non-empty view: the minimum of the occupied banks' cached wake
    /// cycles, O(occupied banks) with no DRAM probe, exact for the DRAM
    /// state of the last resync. A [`ViewMode::Skip`] policy serves only
    /// [`RequestQueue::head`] and runs without the gate cache, so its
    /// bound is one probe of `dram`: the head's
    /// [`DramModule::next_ready_for`].
    #[must_use]
    pub fn next_issue_at(&self, dram: &DramModule, now: Cycle, mode: ViewMode) -> Option<Cycle> {
        if mode == ViewMode::Skip {
            let p = &self.slots[self.head()?.0 as usize].p;
            return Some(dram.next_ready_for(&p.loc, p.request.kind).max(now));
        }
        let mut next: Option<Cycle> = None;
        for &bank in &self.occupied {
            let at = self.wake(&self.banks[bank as usize]);
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// The next DRAM command `id` needs under open-page bank management
    /// and the first cycle it can issue, from the gate cache: what
    /// [`DramModule::next_needed`] and [`DramModule::ready_at`] answer
    /// on the DRAM state of the last resync.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    #[must_use]
    pub fn next_command(&self, id: ReqId) -> (Command, Cycle) {
        let s = &self.slots[id.0 as usize];
        assert!(s.live, "stale ReqId");
        let b = &self.banks[s.bank as usize];
        let gates = self.gates(b);
        match usize::from(s.class) {
            HIT_READ => (
                Command::Read {
                    column: s.p.loc.column,
                },
                gates.read,
            ),
            HIT_WRITE => (
                Command::Write {
                    column: s.p.loc.column,
                },
                gates.write,
            ),
            _ if gates.open_row.is_some() => (Command::Precharge, gates.precharge),
            _ => (Command::Activate { row: s.p.loc.row }, gates.activate),
        }
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
