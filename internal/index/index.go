// Package index implements an inverted index over profile vectors, the
// "well-known indexing technique" the paper appeals to (Section 4.3) for
// making filtering cost sublinear in the number of profile vectors: instead
// of comparing an incoming document against every vector of every user, the
// index walks only the posting lists of the document's terms and
// accumulates dot products for the vectors that share at least one term.
//
// Profile vectors and document vectors are unit-normalized throughout the
// system, so the accumulated dot product IS the cosine similarity.
//
// Hot-path architecture (see DESIGN.md §7 and §12):
//
//   - The index is one structure behind one sync.RWMutex. A match holds
//     the read lock once, for its whole walk; a write (SetPacked,
//     RemoveUser) holds the write lock once, for the whole write, so a
//     match sees a user's old vector set or the new one, never a mix.
//   - Terms are interned to uint32 ids through the process-wide term table
//     (intern.Terms), so matching compares integers, never strings, and
//     the index keeps no term strings of its own.
//   - Postings are a list per term, in a slice indexed by term id. A
//     posting is six bytes — an entry slot and the weight rounded up to 16
//     bits — and a term's postings are one pair of arrays: a prefix in
//     impact order (descending weight), walked in fixed blocks each bounded
//     by its head, and behind it the unsorted tail of recent inserts,
//     merged in once the list is hot enough to rebuild. Removal tombstones
//     postings lazily (a dead-slot list) and the index compacts once
//     tombstones exceed a fraction of its postings.
//   - Matching at θ > 0 prunes: terms are walked heaviest-document-weight
//     first and abandoned once the remaining terms' bounds cannot reach θ;
//     within a term, whole blocks are skipped once their block-max bound
//     proves no accumulator can cross θ. Survivors are rescored in float64
//     against the profile's own vsm.Packed — the entry borrows it, it has
//     no copy — in stored order: core.Profile.Score's sum, bit for bit, so
//     pruned results are identical to the brute-force scorer (§12 for the
//     invariants). SetPruning(false) is the escape hatch.
//   - An entry is a distinct vector, not a (user, vector) pair: equal
//     vectors (vsm.Packed.Equal) share one entry, one set of postings and
//     one rescore, whose score the harvest folds into each holder's best.
//   - A SetPacked handed slices an entry already holds keeps that holding,
//     joins a vector equal to a live entry's, and inserts postings only for
//     the rest: after a feedback step, at most the one vector MM moved.
//   - The per-call score accumulator is a dense slice indexed by entry
//     slot, drawn from a sync.Pool, swept and cleared in one pass.
package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/intern"
	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

const (
	// compactMinStale and compactFraction gate compaction: the index
	// rebuilds its lists once it holds more than compactMinStale tombstoned
	// postings and they exceed 1/compactFraction of its total.
	compactMinStale = 64
	compactFraction = 4

	// blockSize is the posting-block granularity: the unit of skipping
	// during pruned matches, bounded by its first posting. 64 postings =
	// 384B of (slot, weight) pairs, a few cache lines, small enough that a
	// skip decision is worth making.
	blockSize = 64

	// rebuildFraction gates merging a term's tail into its impact-ordered
	// prefix: rebuild once the tail holds at least one block AND at least
	// 1/rebuildFraction of the prefix, so rebuild work stays amortized O(1)
	// per insert — and sizes the arrays a rebuild makes, so the next tail
	// fits in them and capacity stays within that fraction of length. Lists
	// below one block never rebuild — they are the cold Zipf tail, scanned
	// whole.
	rebuildFraction = 4

	// slackBudget bounds, as a fraction of θ, the upper-bound slack a match
	// may absorb from skipped blocks (three quarters of the budget) and the
	// term-level cutoff (the remainder). Slack widens the candidate filter — every
	// touched slot within slackTotal of θ pays an exact rescore — so the
	// budget trades scan volume against rescore volume. Profile-vector
	// score distributions are strongly bimodal around realistic θ (real
	// matches score far above it, term-sharing noise far below), which
	// keeps the candidate set close to the true result set even at half
	// of θ; 0.5 sits well inside the flat part of that trade on the
	// evaluation corpus (see DESIGN.md §12).
	slackBudget = 0.5
)

// termList is one term's postings, slot ids[k] with weight ws[k]: an
// impact-ordered (descending weight) prefix [0:sorted) and, behind it, the
// unsorted tail of recent inserts.
//
// The bound invariants every reader may rely on (the property tests in
// prune_test.go pin them):
//
//	decode(ws[k]) ≥ the exact float64 weight of the pair it stands for
//	                               (up16; the exact weight is the entry's)
//	maxW          ≥ decode(w) for every posting weight w in the list
//	ws[:sorted] is non-increasing, so a block's head bounds the block and
//	everything sorted behind it
type termList struct {
	ids    []uint32
	ws     []uint16
	sorted int
	maxW   float32
}

// blocks returns the block count of the impact-ordered prefix.
func (l *termList) blocks() int { return (l.sorted + blockSize - 1) / blockSize }

// up16 is the weight a posting stores for the exact weight w: the high half
// of narrowUp(w), bumped toward +Inf when the low half held anything, which
// makes it the least 16-bit pattern whose decode is not below w (+Inf
// beyond float32's range; NaN stays NaN). It over-estimates a normal w by
// less than 2⁻⁷ of it. The pruned scan's bounds (maxW, block heads) are
// built on decoded posting weights and a candidate is rescored with the
// entry's float64, so "posting weight ≥ exact weight" is what makes them
// bounds.
func up16(w float64) uint16 {
	if w != w {
		return 0x7FC0
	}
	b := math.Float32bits(narrowUp(w))
	h := uint16(b >> 16)
	if b&0xFFFF != 0 && b>>31 == 0 { // dropping the low half rounds toward zero: down, unless negative
		h++
	}
	return h
}

// decode is the float32 a stored weight stands for.
func decode(h uint16) float32 { return math.Float32frombits(uint32(h) << 16) }

// impact maps a stored weight to an integer ordered as decoded weights
// are, and totally: a NaN sorts beyond the infinity of its sign rather
// than breaking the order of the honest postings it shares a list with.
func impact(h uint16) int16 {
	k := int16(h)
	return k ^ (k>>15)&0x7FFF
}

// sized returns an empty array for a list of n postings: a rebuildFraction-th
// of headroom — the tail that triggers the next rebuild — and whatever more
// the allocator's size class holds, which append takes as capacity. Every
// posting array is made here — by a rebuild, by push when an array is full,
// by a compaction that left one a third empty — so none grows by doubling
// and none stays far above its length.
func sized[T any](n int) []T {
	return slices.Grow([]T(nil), n+(n+rebuildFraction-1)/rebuildFraction)
}

// push is append for a posting array: a full one grows by sized.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(sized[T](len(s)+1), s...)
	}
	return append(s, v)
}

// rebuild merges the tail into the impact-ordered prefix, in new arrays.
// Caller holds the write lock.
func (l *termList) rebuild() {
	n, i, j := len(l.ids), 0, l.sorted
	heapsortDesc(l.ws[j:], l.ids[j:])
	ids, ws := sized[uint32](n), sized[uint16](n)
	for i < l.sorted && j < n {
		if impact(l.ws[i]) >= impact(l.ws[j]) {
			ids, ws = append(ids, l.ids[i]), append(ws, l.ws[i])
			i++
		} else {
			ids, ws = append(ids, l.ids[j]), append(ws, l.ws[j])
			j++
		}
	}
	ids = append(append(ids, l.ids[i:l.sorted]...), l.ids[j:]...)
	ws = append(append(ws, l.ws[i:l.sorted]...), l.ws[j:]...)
	l.ids, l.ws, l.sorted = ids, ws, n
}

// entrySlot is one distinct indexed vector. p is the vector as the first
// profile to hold it handed it over: the same slices, borrowed, never
// written to (vsm.Packed's contract), in the term order rescore sums in.
// Every (user, vector) holding of equal content is a holder of this one
// entry, so a vector many users hold has one set of postings and one
// rescore. The first holder is inline: a vector one user holds needs no
// slice. An entry is alive while it has a holder, and dead once its last
// holder leaves. Slots are recycled, but only after a compaction has
// dropped the dead slot's stale postings — until then a stale posting can
// still accumulate score onto the slot, which harvest discards because the
// slot is not alive.
type entrySlot struct {
	p    vsm.Packed
	more []holder // holders 1..n-1
	one  holder
	n    uint32
}

func (e *entrySlot) alive() bool { return e.n > 0 }

// at is the holder at position pos; 0 is the inline one.
func (e *entrySlot) at(pos uint32) *holder {
	if pos == 0 {
		return &e.one
	}
	return &e.more[pos-1]
}

// add appends h to the entry's holders and returns its position.
func (e *entrySlot) add(h holder) uint32 {
	if e.n == 0 {
		e.one = h
	} else {
		e.more = append(e.more, h)
	}
	e.n++
	return e.n - 1
}

// holder is one (user, vector) holding of an entry: the user's dense id,
// the holding's index in that user's held list, and the vector's number
// among the user's. holder.idx and held.pos point at each other, which is
// what makes a join or a leave O(1) whatever the holder count.
type holder struct {
	uid, idx, vec uint32
}

// held is the user's side of a holding: the entry slot and the holding's
// position among the entry's holders.
type held struct {
	slot, pos uint32
}

// identical reports whether p and q are one vector — the same backing
// arrays and lengths, not equal contents. A Packed is immutable, so
// identity means the vector has not changed.
func identical(p, q vsm.Packed) bool {
	return sameSlice(p.IDs, q.IDs) && sameSlice(p.Weights, q.Weights)
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// userInfo is one user: its name, its dense id (uids index the pooled
// best-per-user arrays during harvest) and its holdings, in no order.
type userInfo struct {
	name string
	uid  uint32
	held []held
}

// Match is one hit of a document against the index: the user's best-scoring
// profile vector and its similarity.
type Match struct {
	User  string
	Score float64
	// Vector is the slot of the user's best-matching profile vector.
	Vector int
}

// Index is a concurrent inverted index over profile vectors. One RWMutex
// guards all of it: a Match holds the read lock once, and a write holds
// the write lock once, so a concurrent Match observes a user's old vector
// set or the new one — never a mix, never an empty in-between.
type Index struct {
	mu    sync.RWMutex // everything below, up to pool
	lists []termList   // by intern.Terms id; empty for a term no vector holds
	live  int          // postings referencing live entries
	stale int          // tombstoned postings awaiting compaction
	dead  []uint32     // entry slots whose postings are stale

	entries  []entrySlot
	freeEnt  []uint32
	content  map[uint64]uint32 // content hash → entry slot (content.go)
	names    []vsm.Digest      // by entry slot: the digest naming it (content.go)
	byName   nameTable
	byUser   map[string]*userInfo
	users    []*userInfo // by uid; nil for a free uid
	freeUID  []uint32
	liveVecs int // (user, vector) holdings
	distinct int // live entries
	// maxNorm over-estimates every live entry's vector norm (profile
	// vectors are unit-normalized, so it hovers at 1). It only grows —
	// removals leave it stale-high, which keeps the Cauchy–Schwarz
	// remaining-mass bound in accumulate an over-estimate, like maxW.
	maxNorm float64

	pool sync.Pool // *matcher

	// pruneOff disables threshold-aware skipping (SetPruning). Results are
	// identical either way — exact rescoring makes pruning lossless — so
	// the toggle exists for A/B benchmarking and as an escape hatch.
	pruneOff atomic.Bool

	// stats counts pruning work across all matches (PruneStats); always on,
	// flushed in one batch of atomic adds per match.
	stats pruneCounters

	// inst is nil until Instrument is called; instrumented paths check it
	// once and fall through at zero cost when monitoring is off.
	inst *instruments

	// termAttr is nil until Instrument is called; when set, each match
	// offers its document terms' postings-scanned counts so /topz can
	// answer "which terms make matching expensive" (DESIGN.md §8).
	termAttr *metrics.Sketch[uint32]
}

// pruneCounters aggregates matcher work; see PruneStats.
type pruneCounters struct {
	postingsScanned atomic.Uint64
	blocksSkipped   atomic.Uint64
	termsPruned     atomic.Uint64
	candidates      atomic.Uint64
	rescores        atomic.Uint64
}

// PruneStats is a cumulative snapshot of matcher effort: how many postings
// every match so far actually read, how many whole blocks the θ-bound let
// it skip, how many document terms were cut off wholesale, and how many
// survivor candidates needed an exact rescore.
type PruneStats struct {
	PostingsScanned uint64
	BlocksSkipped   uint64
	TermsPruned     uint64
	Candidates      uint64
	Rescores        uint64
}

// PruneStats returns the cumulative pruning counters.
func (ix *Index) PruneStats() PruneStats {
	return PruneStats{
		PostingsScanned: ix.stats.postingsScanned.Load(),
		BlocksSkipped:   ix.stats.blocksSkipped.Load(),
		TermsPruned:     ix.stats.termsPruned.Load(),
		Candidates:      ix.stats.candidates.Load(),
		Rescores:        ix.stats.rescores.Load(),
	}
}

// SetPruning toggles threshold-aware block skipping at runtime: the exact
// every-posting scan the index tests compare pruned matching against.
// Pruned and unpruned matching return identical results; only the work
// differs.
func (ix *Index) SetPruning(on bool) { ix.pruneOff.Store(!on) }

// instruments holds the index's metrics (DESIGN.md §8). All fields are
// nil-safe no-ops until Instrument wires them to a registry.
type instruments struct {
	compactions     *metrics.Counter
	compactLat      *metrics.Histogram
	postingsScanned *metrics.Counter
	blocksSkipped   *metrics.Counter
	termsPruned     *metrics.Counter
	rescores        *metrics.Counter
	quantErr        *metrics.Histogram
	kept            *metrics.Counter
	restaged        *metrics.Counter
}

// Instrument registers the index's metrics with reg and starts recording.
// Call it before the index is shared across goroutines (the broker does so
// at construction). Matching is not timed here: the broker's publish path
// brackets MatchDoc with clock reads it needs anyway and feeds
// mm_pubsub_match_seconds from them.
//
// It also creates the per-term match-cost dimension — key: document term,
// weight: postings scanned for that term. Term ids stay raw uint32 on the
// hot path; they resolve to strings through the dictionary only at
// snapshot time.
func (ix *Index) Instrument(reg *metrics.Registry) {
	ix.termAttr = metrics.TopK[uint32](reg, "term_postings_scanned",
		"Postings scanned while matching, by document term.",
		metrics.DimensionCapacity,
		intern.Terms.String)
	ix.inst = &instruments{
		compactions: reg.Counter("mm_index_compactions_total",
			"Posting-space compactions performed (tombstone garbage collection)."),
		compactLat: reg.Histogram("mm_index_compaction_seconds",
			"Duration of individual posting-space compactions."),
		postingsScanned: reg.Counter("mm_index_postings_scanned_total",
			"Postings actually read while matching (pruning skips the rest)."),
		blocksSkipped: reg.Counter("mm_index_blocks_skipped_total",
			"Posting blocks skipped because their block-max bound could not reach the match threshold."),
		termsPruned: reg.Counter("mm_index_terms_pruned_total",
			"Document terms dropped wholesale because the remaining upper-bound mass could not reach the threshold."),
		rescores: reg.Counter("mm_index_rescores_total",
			"Candidate vectors exactly rescored after quantized upper-bound accumulation."),
		quantErr: reg.Histogram("mm_index_quantization_error",
			"Per-match maximum over-estimate of the quantized upper-bound score versus the exact rescored similarity."),
		kept: reg.Counter("mm_index_vectors_kept_total",
			"Vectors a reindex found already indexed — the same slices the profile still holds, or an equal live vector it joined — and inserted no posting for."),
		restaged: reg.Counter("mm_index_vectors_restaged_total",
			"Vectors a reindex indexed anew: entry slot allocated, postings inserted."),
	}
	reg.GaugeFunc("mm_index_live_vectors",
		"Profile vectors currently live in the inverted index: (user, vector) holdings, shared entries counted once per holder.",
		func() float64 {
			ix.mu.RLock()
			n := ix.liveVecs
			ix.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("mm_index_tombstone_ratio",
		"Fraction of postings that are tombstoned and awaiting compaction (0 = fully compact).",
		func() float64 {
			ix.mu.RLock()
			live, stale := ix.live, ix.stale
			ix.mu.RUnlock()
			if live+stale == 0 {
				return 0
			}
			return float64(stale) / float64(live+stale)
		})
}

// New returns an empty index. Its term dictionary is intern.Terms, the
// table decoded profiles already took their term strings from.
func New() *Index {
	ix := &Index{byUser: make(map[string]*userInfo), content: make(map[uint64]uint32)}
	ix.pool.New = func() any { return new(matcher) }
	return ix
}

// ---------------------------------------------------------------------------
// Updates

// narrowUp is the nearest float32 not below w (+Inf beyond float32's range;
// NaN stays NaN): the first half of up16.
func narrowUp(w float64) float32 {
	f := float32(w)
	if float64(f) < w {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// SetPacked replaces every vector of the user with the given set, the
// operation after a feedback step reshapes a profile, and the index's one
// write path; vector i takes number i, and a zero vector leaves its number
// empty. It is one hold of the write lock, so a concurrent Match sees the
// user's old vector set or the new one, never a mix and never none.
//
// The vectors are taken in order, each one of three kinds. Kept: a holding
// of the user not yet claimed by this set holds its very slices — the index
// borrows a vector's slices and takes "the same slices again" to mean
// "unchanged" — so the holding is renumbered. Joined: the content table
// names a live entry equal to it (vsm.Packed.Equal), perhaps one an earlier
// vector of this set created, so it adds a holding and no posting. Fresh:
// a slot is allocated and its postings inserted. Handed a profile's set
// after an MM step, that is at most the one vector the step moved. Every
// holding of the user the set did not keep then retires: adds come first,
// so a vector that leaves an entry and rejoins it does not kill it.
//
// names, when given, are the vectors' digests (vsm.DecodeNamed): names[i]
// is the digest of the bytes vecs[i] was decoded from, or zero. A joined
// or fresh vector's digest names its entry unless either has a name
// already, so an import of the same bytes finds it (Named).
//
// It returns the vectors as the index holds them: vecs itself when every
// vector is the entry's own, else a copy in which a joined vector is the
// entry's equal Packed. A caller that takes those in place of its own
// (core.Profile.AdoptPacked) lets its duplicate arrays go.
func (ix *Index) SetPacked(user string, vecs []vsm.Packed, names ...vsm.Digest) []vsm.Packed {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ui := ix.byUser[user]
	var kept []bool // by the user's holdings before this write
	if ui != nil {
		kept = make([]bool, len(ui.held))
	}
	out, found, fresh := vecs, 0, 0
next:
	for i, p := range vecs {
		if p.Len() == 0 {
			continue
		}
		for k, claimed := range kept {
			if h := ui.held[k]; !claimed && identical(ix.entries[h.slot].p, p) {
				kept[k] = true
				ix.entries[h.slot].at(h.pos).vec = uint32(i)
				found++
				continue next
			}
		}
		hash := contentHash(p)
		slot, ok := ix.lookup(hash, p)
		if ok {
			found++
			if q := ix.entries[slot].p; !identical(q, p) {
				if sameSlice(out, vecs) {
					out = slices.Clone(vecs)
				}
				out[i] = q
			}
		} else {
			slot = ix.insert(p)
			ix.name(hash, slot)
			ix.distinct++
			fresh++
		}
		if i < len(names) {
			ix.nameSlot(names[i], slot)
		}
		if ui == nil {
			ui = ix.addUser(user)
		}
		pos := ix.entries[slot].add(holder{uid: ui.uid, idx: uint32(len(ui.held)), vec: uint32(i)})
		ui.held = append(ui.held, held{slot: slot, pos: pos})
		ix.liveVecs++
	}
	for k := len(kept) - 1; k >= 0; k-- {
		if !kept[k] {
			ix.leave(ui, k)
		}
	}
	ix.compactIfStale()
	if ix.inst != nil {
		ix.inst.kept.Add(int64(found))
		ix.inst.restaged.Add(int64(fresh))
	}
	return out
}

// SetUser is SetPacked for callers that hold their vectors as strings: it
// packs them, which is what interns their terms.
func (ix *Index) SetUser(user string, vecs []vsm.Vector) {
	packed := make([]vsm.Packed, len(vecs))
	for i, v := range vecs {
		packed[i] = vsm.Pack(v)
	}
	ix.SetPacked(user, packed)
}

// insert allocates an entry slot for p, with no holder yet, and appends
// its postings to their terms' lists. Inserts land in the term's tail;
// once the tail holds a block's worth and a rebuildFraction-th of the
// prefix, the list rebuilds into impact order there and then. Caller holds
// the write lock.
func (ix *Index) insert(p vsm.Packed) uint32 {
	var slot uint32
	if n := len(ix.freeEnt); n > 0 {
		slot = ix.freeEnt[n-1]
		ix.freeEnt = ix.freeEnt[:n-1]
	} else {
		slot = uint32(len(ix.entries))
		ix.entries = append(ix.entries, entrySlot{})
	}
	ix.entries[slot] = entrySlot{p: p}
	var sumsq float64
	for i, t := range p.IDs {
		if int(t) >= len(ix.lists) {
			// Ids are dense, so the table's length bounds them all: one
			// growth covers every term interned so far.
			n := max(int(t)+1, intern.Terms.Len())
			ix.lists = slices.Grow(ix.lists, n-len(ix.lists))[:n]
		}
		l := &ix.lists[t]
		w := up16(p.Weights[i])
		l.ids, l.ws = push(l.ids, slot), push(l.ws, w)
		if f := decode(w); f > l.maxW {
			l.maxW = f
		}
		if tail := len(l.ids) - l.sorted; tail >= blockSize && tail*rebuildFraction >= l.sorted {
			l.rebuild()
		}
		sumsq += p.Weights[i] * p.Weights[i]
	}
	ix.live += len(p.IDs)
	// The norm of the exact float64 weights, the ones a candidate is
	// rescored with. The 1e-6 bump absorbs this sum's rounding and
	// accumulate's, so maxNorm·√Σdw² stays a true upper bound there.
	if norm := math.Sqrt(sumsq) * (1 + 1e-6); norm > ix.maxNorm {
		ix.maxNorm = norm
	}
	return slot
}

// leave ends the user's k-th holding. The entry's last holder moves into
// its position and the user's last holding into index k, each telling its
// other side where it went, so nothing is scanned. An entry left with no
// holder dies: it leaves the content and name tables and its postings are
// tombstoned. A user left with no holding is dropped. Caller holds the
// write lock.
func (ix *Index) leave(ui *userInfo, k int) {
	h := ui.held[k]
	e := &ix.entries[h.slot]
	e.n--
	if h.pos != e.n {
		mv := *e.at(e.n)
		*e.at(h.pos) = mv
		ix.users[mv.uid].held[mv.idx].pos = h.pos
	}
	if e.n <= 1 {
		e.more = nil
	} else {
		e.more = e.more[:e.n-1]
	}
	last := len(ui.held) - 1
	if k != last {
		mv := ui.held[last]
		ui.held[k] = mv
		ix.entries[mv.slot].at(mv.pos).idx = uint32(k)
	}
	ui.held = ui.held[:last]
	ix.liveVecs--
	if e.n == 0 {
		ix.unname(contentHash(e.p), h.slot)
		ix.unnameSlot(h.slot)
		ix.dead = append(ix.dead, h.slot)
		ix.stale += len(e.p.IDs)
		ix.live -= len(e.p.IDs)
		ix.distinct--
		*e = entrySlot{} // let go of the vector
	}
	if len(ui.held) == 0 {
		ix.users[ui.uid] = nil
		ix.freeUID = append(ix.freeUID, ui.uid)
		delete(ix.byUser, ui.name)
	}
}

// RemoveUser deletes every vector of the user (unsubscribe).
func (ix *Index) RemoveUser(user string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ui := ix.byUser[user]; ui != nil {
		for k := len(ui.held) - 1; k >= 0; k-- {
			ix.leave(ui, k)
		}
	}
	ix.compactIfStale()
}

// addUser registers a user with no holdings yet, under a free uid if there
// is one. Caller holds the write lock.
func (ix *Index) addUser(user string) *userInfo {
	ui := &userInfo{name: user, uid: uint32(len(ix.users))}
	if n := len(ix.freeUID); n > 0 {
		ui.uid = ix.freeUID[n-1]
		ix.freeUID = ix.freeUID[:n-1]
		ix.users[ui.uid] = ui
	} else {
		ix.users = append(ix.users, ui)
	}
	ix.byUser[user] = ui
	return ui
}

// compactIfStale compacts once the tombstoned postings exceed
// compactMinStale and 1/compactFraction of all postings. Caller holds the
// write lock.
func (ix *Index) compactIfStale() {
	if ix.stale > compactMinStale && ix.stale*compactFraction > ix.stale+ix.live {
		ix.compactLocked()
	}
}

// compactLocked drops every stale posting and returns the dead slots, whose
// postings are now gone, to the free list, recording the compaction when
// instrumented. Filtering preserves impact order on the prefix; maxW is
// retaken from what survives. Caller holds the write lock.
func (ix *Index) compactLocked() {
	if len(ix.dead) == 0 {
		return
	}
	var t0 time.Time
	if ix.inst != nil {
		t0 = time.Now()
	}
	dead := make([]bool, slices.Max(ix.dead)+1)
	for _, slot := range ix.dead {
		dead[slot] = true
	}
	for t := range ix.lists {
		l := &ix.lists[t]
		n, sorted, maxW := 0, 0, float32(0)
		for k, id := range l.ids {
			if int(id) < len(dead) && dead[id] {
				continue
			}
			w := l.ws[k]
			l.ids[n], l.ws[n] = id, w
			n++
			if k < l.sorted {
				sorted = n
			}
			if f := decode(w); f > maxW {
				maxW = f
			}
		}
		if n == 0 {
			*l = termList{}
			continue
		}
		l.ids, l.ws = l.ids[:n], l.ws[:n]
		// Let go of what the dropped postings held once it is a third of the
		// arrays — but not of a handful of slots, which a short list would
		// free at every compaction only to grow back within a few inserts.
		if c := cap(l.ids); c > blockSize/4 && c > n+n/2 {
			l.ids = append(sized[uint32](n), l.ids...)
			l.ws = append(sized[uint16](n), l.ws...)
		}
		l.sorted, l.maxW = sorted, maxW
	}
	ix.freeEnt = append(ix.freeEnt, ix.dead...)
	ix.dead, ix.stale = nil, 0
	if ix.inst != nil {
		ix.inst.compactions.Inc()
		ix.inst.compactLat.ObserveSince(t0)
	}
}

// Optimize merges every term's tail into its impact-ordered prefix, leaving
// no always-scanned postings behind. Background rebuilds keep tails
// amortized-small (≤ 1/rebuildFraction of each list), but a freshly loaded
// index can still carry ~10% of its postings in tails that pruned matches
// must scan whole; a read-heavy deployment calls Optimize once after bulk
// loading to make the whole index skippable. Safe (and pointless) to call
// repeatedly.
func (ix *Index) Optimize() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for t := range ix.lists {
		if l := &ix.lists[t]; l.sorted < len(l.ids) {
			l.rebuild()
		}
	}
}

// Compact eagerly drops every tombstoned posting; with none there is
// nothing to do and nothing is counted. Updates trigger compaction
// automatically; Compact exists for callers that want minimal memory right
// now.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.compactLocked()
}

// ---------------------------------------------------------------------------
// Matching

// matcher is the pooled per-call scoring state: the document's terms in
// walk order, a dense accumulator over entry slots, a dense best-per-user
// table over uids with the list of uids it holds, and the pruning scratch
// (block counts, suffix sums).
type matcher struct {
	ids      []uint32  // the document's term ids, heaviest document weight first
	ws       []float64 // aligned with ids
	nb       []int32
	suffix   []float64
	csr      []float64
	dense    []float64
	scores32 []float32 // upper-bound accumulator (pruned); touched marks (unpruned)
	best     []float64
	bestVec  []uint32
	uids     []uint32
	scans    []float64 // aligned with ids: postings each term scanned, for termAttr
	stats    matchStats
}

// matchStats is one match's pruning effort, flushed to the index counters
// (and instruments, when wired) in a single batch after the locks drop.
type matchStats struct {
	postingsScanned int
	blocksSkipped   int
	termsPruned     int
	candidates      int
	rescores        int
	maxOver         float64
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(make([]T, 0, n), make([]T, n)...)
	}
	return s[:n]
}

// Match scores the document against every indexed profile vector that
// shares a term with it and returns, per user, the best-scoring vector with
// score ≥ threshold, sorted by descending score (ties by user for
// determinism). doc must be unit-normalized, as all document vectors in
// this system are. It is MatchDoc of doc's retained form.
func (ix *Index) Match(doc vsm.Vector, threshold float64) []Match {
	return ix.MatchDoc(vsm.Retain(doc), threshold)
}

// MatchDoc is Match for a retained document. Its ids were looked up when
// it was retained; a term the table did not hold then cannot match and is
// skipped. The rest are walked heaviest document weight first (the order
// that collapses the Cauchy–Schwarz tail bound fastest), sorted in the
// pooled matcher, so a match allocates only its result.
//
// Accumulate + harvest run under one hold of the read lock, and a write is
// one hold of the write lock, so a write appears atomic to a match: it
// scores either a user's old vector set or the new one, never a
// half-replaced mix or a vanished user. Stale postings on dead slots are
// harmless: harvest discards them.
func (ix *Index) MatchDoc(d vsm.Retained, threshold float64) []Match {
	prune := threshold > 0 && !ix.pruneOff.Load()
	m := ix.pool.Get().(*matcher)
	m.ids, m.ws = d.AppendHits(m.ids[:0], m.ws[:0])
	sortTermsByWDesc(m.ids, m.ws)
	ix.mu.RLock()
	slackTotal := ix.accumulate(m, threshold, prune)
	out := ix.harvestAll(m, threshold, slackTotal, prune)
	ix.mu.RUnlock()
	m.flushStats(ix)
	ix.pool.Put(m)
	sortMatches(out)
	return out
}

// accumulate walks posting lists term-at-a-time.
//
// With pruning off (or θ ≤ 0) every posting is read and only marks its
// slot in m.scores32: the harvest then rescores every marked slot, so the
// reference scan and the pruned one score a vector by the same arithmetic
// and differ only in which vectors they look at. The returned slack is 0.
//
// With pruning on, every scanned posting contributes its upper bound
// dw·decode(w) to the dense float32 accumulator m.scores32 — unconditionally,
// no first-touch bookkeeping; the tail is always scanned — and two skip
// levels bound what goes unscanned (DESIGN.md §12):
//
//  1. Block skip: a block of the prefix whose bound bub = dw·decode(head)
//     fits the remaining skip budget retires the whole rest of the prefix
//     for one charge of bub to slack — impact order makes the current
//     block's head bound every later posting, and a slot holds at most one
//     posting per term. This can fire at block 0, dropping an entire fat
//     list.
//  2. Term cutoff: terms are walked heaviest-document-weight first (the
//     order that collapses the Cauchy–Schwarz branch of rest fastest, and
//     one that front-loads rare short-listed terms); once slack + rest(i)
//     fits the slack budget (slackBudget·θ) the remaining terms are
//     dropped whole.
//
// rest(i) is the tighter of two per-slot bounds on mass from terms [i, n):
// the upper-bound sum Σ dw·maxW, and Cauchy–Schwarz — √(Σ dw²) times maxNorm,
// since no entry holds more weight mass over those terms than its norm.
//
// The invariant is uniform: for EVERY slot, the mass its accumulator may
// be missing is ≤ slackTotal = slack + rest(stop) ≤ slackBudget·θ —
// skipped list tails are covered by their charged bub (one posting per
// slot per term) and cut terms by rest(stop). So the harvest sweep's
// candidate filter (score32 + slackTotal ≥ θ, minus a float32 rounding
// margin) admits a superset of the true result set, every candidate is
// exactly rescored in float64, and pruned output is bit-identical to the
// unpruned scan's. Caller holds the read lock.
func (ix *Index) accumulate(m *matcher, threshold float64, prune bool) (slackTotal float64) {
	ids, ws := m.ids, m.ws
	m.scores32 = grow(m.scores32, len(ix.entries))
	m.stats = matchStats{}

	n := len(ids)
	m.nb = grow(m.nb, n)
	m.suffix = grow(m.suffix, n+1)
	m.csr = grow(m.csr, n+1)
	m.suffix[n], m.csr[n] = 0, 0
	m.scans = grow(m.scans, n)
	clear(m.scans)
	var sumsq float64
	maxNorm := ix.maxNorm
	lists := ix.lists
	for i := n - 1; i >= 0; i-- {
		var maxw float64
		var nb int32
		if t := ids[i]; int(t) < len(lists) {
			maxw = float64(lists[t].maxW)
			nb = int32(lists[t].blocks())
		}
		m.nb[i] = nb
		m.suffix[i] = m.suffix[i+1] + ws[i]*maxw
		sumsq += ws[i] * ws[i]
		m.csr[i] = maxNorm * math.Sqrt(sumsq)
	}
	rest := func(i int) float64 {
		if m.csr[i] < m.suffix[i] {
			return m.csr[i]
		}
		return m.suffix[i]
	}

	budget := slackBudget * threshold
	var slack float64
	scanned := 0
	stop := n
	for i, t := range ids {
		if prune && slack+rest(i) <= budget {
			stop = i
			break
		}
		if int(t) >= len(lists) || len(lists[t].ids) == 0 {
			continue
		}
		dw := ws[i]
		scanBase := scanned
		l := &lists[t]
		if !prune {
			for _, id := range l.ids {
				m.scores32[id] = unprunedMark
			}
			scanned += len(l.ids)
			m.scans[i] = float64(scanned - scanBase)
			continue
		}
		dw32 := float32(dw)
		m.add(l.ids[l.sorted:], l.ws[l.sorted:], dw32)
		scanned += len(l.ids) - l.sorted
		for start := 0; start < l.sorted; start += blockSize {
			bub := dw * float64(decode(l.ws[start]))
			// Three quarters of the budget may go to block skips; the
			// remainder is reserved so the term cutoff can still fire.
			if slack+bub <= budget*0.75 {
				slack += bub
				m.stats.blocksSkipped += l.blocks() - start/blockSize
				break
			}
			end := min(start+blockSize, l.sorted)
			m.add(l.ids[start:end], l.ws[start:end], dw32)
			scanned += end - start
		}
		m.scans[i] = float64(scanned - scanBase)
	}
	slackTotal = slack
	if stop < n {
		m.stats.termsPruned = n - stop
		for j := stop; j < n; j++ {
			m.stats.blocksSkipped += int(m.nb[j])
		}
		slackTotal += rest(stop)
	}
	m.stats.postingsScanned = scanned
	return slackTotal
}

// add is the scan kernel, the same for a block and for the tail: each
// posting adds dw times its decoded weight to its slot's accumulator.
func (m *matcher) add(ids []uint32, ws []uint16, dw float32) {
	scores, ws := m.scores32, ws[:len(ids)]
	for k, id := range ids {
		scores[id] += dw * decode(ws[k])
	}
}

// fillDense scatters the document's weights into a term-id-indexed scratch
// array so rescore can look doc weights up in O(1). Sized to the document's
// largest term id; entry terms beyond it cannot be doc terms and contribute
// nothing. clearDense undoes exactly the writes fillDense made, keeping the
// pooled array all-zero between calls.
func (m *matcher) fillDense() {
	if len(m.ids) == 0 {
		m.dense = m.dense[:0]
		return
	}
	m.dense = grow(m.dense, int(slices.Max(m.ids))+1)
	for j, t := range m.ids {
		m.dense[t] = m.ws[j]
	}
}

func (m *matcher) clearDense() {
	for _, t := range m.ids {
		if int(t) < len(m.dense) {
			m.dense[t] = 0
		}
	}
}

// rescore is the exact similarity between an indexed vector and the
// document: the products of the shared terms, in float64, added in p's
// stored order, terms the document lacks skipped — the sum
// vsm.Resolved.Dot computes, so a Match score is core.Profile.Score's bit
// for bit and "delivered" means Score ≥ θ, not nearly.
func rescore(p vsm.Packed, dense []float64) float64 {
	var sum float64
	for i, t := range p.IDs {
		if int(t) < len(dense) {
			if dw := dense[t]; dw != 0 {
				sum += p.Weights[i] * dw
			}
		}
	}
	return sum
}

// sweepCut is the pruned harvest's candidate filter: a slot survives when
// score32 + slackTotal ≥ θ·(1 − sweepMargin). The margin absorbs every
// float32 rounding the pruned accumulator admits — float32(dw), the
// products and the additions — whose combined relative error stays under
// (terms+3)·2⁻²³ ≈ 1.6e-5 for thousand-term documents, three orders of
// magnitude inside the margin. Candidates are exactly rescored in float64,
// so the margin only widens the candidate superset; it never changes
// output.
const sweepMargin = 1e-3

func sweepCut(threshold, slackTotal float64) float32 {
	return float32(threshold - slackTotal - sweepMargin*threshold)
}

// unprunedMark is what the unpruned scan leaves in m.scores32 for a slot
// that shares a term with the document, and the cut its harvest sweeps at.
const unprunedMark = 1

// harvestAll reduces the accumulator to the best vector per user ≥ θ. It
// sweeps m.scores32 sequentially — at large slot counts nearly every slot
// was touched anyway, and one linear pass plus a bulk clear is far cheaper
// than a random-order touched walk — and exactly rescores every live slot
// at or above the cut: sweepCut's when pruning, the mark of a shared term
// when not. Caller holds the read lock.
func (ix *Index) harvestAll(m *matcher, threshold float64, slackTotal float64, prune bool) []Match {
	m.best = grow(m.best, len(ix.users))
	m.bestVec = grow(m.bestVec, len(ix.users))
	m.uids = m.uids[:0]
	m.fillDense()
	cut := float32(unprunedMark)
	if prune {
		cut = sweepCut(threshold, slackTotal)
	}
	for slot, sc32 := range m.scores32 {
		if sc32 < cut {
			continue
		}
		e := &ix.entries[slot]
		if !e.alive() {
			continue
		}
		ex := rescore(e.p, m.dense)
		if prune {
			m.stats.candidates++
			m.stats.rescores++
			if over := float64(sc32) - ex; over > m.stats.maxOver {
				m.stats.maxOver = over
			}
		}
		if ex < threshold {
			continue
		}
		m.record(e.one, ex)
		for _, h := range e.more {
			m.record(h, ex)
		}
	}
	clear(m.scores32)
	m.clearDense()
	out := make([]Match, 0, len(m.uids))
	for _, uid := range m.uids {
		out = append(out, Match{User: ix.users[uid].name, Score: m.best[uid], Vector: int(m.bestVec[uid])})
		m.best[uid] = 0
	}
	return out
}

// record folds one holding of a qualifying entry, at the entry's exact
// score, into the per-user bests; a tie goes to the lower vector number.
func (m *matcher) record(h holder, sc float64) {
	cur := m.best[h.uid]
	switch {
	case cur == 0:
		m.uids = append(m.uids, h.uid)
		fallthrough
	case sc > cur,
		sc == cur && h.vec < m.bestVec[h.uid]:
		m.best[h.uid] = sc
		m.bestVec[h.uid] = h.vec
	}
}

// flushStats batches the match's pruning work into the index counters and,
// when instrumented, the exported metrics and the per-term dimension (one
// hold of its lock per match). Called after locks drop.
func (m *matcher) flushStats(ix *Index) {
	ix.termAttr.OfferEach(len(m.ids), func(i int) (uint32, float64) { return m.ids[i], m.scans[i] })
	st := &m.stats
	if st.postingsScanned > 0 {
		ix.stats.postingsScanned.Add(uint64(st.postingsScanned))
	}
	if st.blocksSkipped > 0 {
		ix.stats.blocksSkipped.Add(uint64(st.blocksSkipped))
	}
	if st.termsPruned > 0 {
		ix.stats.termsPruned.Add(uint64(st.termsPruned))
	}
	if st.candidates > 0 {
		ix.stats.candidates.Add(uint64(st.candidates))
	}
	if st.rescores > 0 {
		ix.stats.rescores.Add(uint64(st.rescores))
	}
	inst := ix.inst
	if inst == nil {
		return
	}
	if st.postingsScanned > 0 {
		inst.postingsScanned.Add(int64(st.postingsScanned))
	}
	if st.blocksSkipped > 0 {
		inst.blocksSkipped.Add(int64(st.blocksSkipped))
	}
	if st.termsPruned > 0 {
		inst.termsPruned.Add(int64(st.termsPruned))
	}
	if st.rescores > 0 {
		inst.rescores.Add(int64(st.rescores))
		inst.quantErr.Observe(st.maxOver) // ≥ 0: it starts there and only grows
	}
}

// matchLess is the result order: descending score, ties by user.
func matchLess(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.User < b.User
}

func sortMatches(out []Match) {
	// slices.SortFunc over sort.Slice: no reflection-based swaps, and the
	// match-set sort is a measurable slice of large-tier Match calls.
	slices.SortFunc(out, func(a, b Match) int {
		if matchLess(a, b) {
			return -1
		}
		if matchLess(b, a) {
			return 1
		}
		return 0
	})
}

// ---------------------------------------------------------------------------
// Sorting scratch (closure-free so the match path stays allocation-free)

// sortTermsByWDesc insertion-sorts the parallel term arrays by descending
// document weight. The walk order exists to make rest(i) collapse as fast
// as possible, and the binding branch of rest is the Cauchy–Schwarz bound
// √(Σ tail dw²) — which decays fastest when the heaviest doc weights go
// first. High doc weights are high-idf (rare) terms with short posting
// lists, so this order also keeps the broad mint zone over cheap lists
// and leaves the fat common-term lists to the update/skip/cutoff levels.
func sortTermsByWDesc(ids []uint32, ws []float64) {
	for i := 1; i < len(ws); i++ {
		id, w := ids[i], ws[i]
		j := i - 1
		for j >= 0 && ws[j] < w {
			ids[j+1], ws[j+1] = ids[j], ws[j]
			j--
		}
		ids[j+1], ws[j+1] = id, w
	}
}

// heapsortDesc sorts a list's tail — parallel weights and slots — by
// descending impact, in place and allocation-free (a tail can reach many
// thousands, too large for insertion sort).
func heapsortDesc(ws []uint16, ids []uint32) {
	n := len(ws)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMin(ws, ids, i, n)
	}
	for end := n - 1; end > 0; end-- {
		ws[0], ws[end] = ws[end], ws[0]
		ids[0], ids[end] = ids[end], ids[0]
		siftDownMin(ws, ids, 0, end)
	}
}

// siftDownMin restores the min-heap property at i over ws[:n].
func siftDownMin(ws []uint16, ids []uint32, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && impact(ws[r]) < impact(ws[l]) {
			small = r
		}
		if impact(ws[small]) >= impact(ws[i]) {
			return
		}
		ws[i], ws[small] = ws[small], ws[i]
		ids[i], ids[small] = ids[small], ids[i]
		i = small
	}
}

// ---------------------------------------------------------------------------
// Statistics

// Stats reports index size for monitoring. Vectors counts (user, vector)
// holdings and Distinct the entries they share; postings are the distinct
// entries'.
type Stats struct {
	Users    int
	Vectors  int
	Distinct int
	Terms    int
	Postings int
}

// Probe takes the lock a match takes, for reading, and returns the live
// vector count: one field, where Size walks every term list, so a liveness
// heartbeat can call it every second.
func (ix *Index) Probe() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveVecs
}

// Size returns current index statistics, exact and under the read lock: it
// changes nothing, tombstones included. Postings count only live entries'
// (ix.live), and a term counts when one of its postings names a live
// entry, so a dirty index reports what a freshly built one of the same
// profiles would.
func (ix *Index) Size() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{Users: len(ix.byUser), Vectors: ix.liveVecs, Distinct: ix.distinct, Postings: ix.live}
	alive := func(id uint32) bool { return ix.entries[id].alive() }
	for t := range ix.lists {
		if slices.ContainsFunc(ix.lists[t].ids, alive) {
			s.Terms++
		}
	}
	return s
}
