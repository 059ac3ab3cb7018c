package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: where
// metrics.go aggregates (a histogram can say p99 regressed but not which
// query regressed it), the Journal remembers individual completed queries —
// a bounded ring of recent records, a separate always-retained ring of
// slow ones, and a table of in-flight queries so a hung evaluation is
// visible with its age instead of silently absorbing a goroutine.
//
// The same hot-path constraint as the rest of the package applies: journal
// operations on the serving path (Begin/End/Record) never allocate — the
// rings and the in-flight table are preallocated and records are copied
// into place by value — and every method is safe on a nil *Journal, so a
// server configured without a journal pays one nil check per request.

// QueryRecord is one completed query as the journal remembers it. Wall and
// Eval are microseconds (Wall covers the whole request, Eval only the
// evaluation/cache probe); Trace, when non-nil, is the obs JSON span tree
// of a sampled or explicitly traced request.
type QueryRecord struct {
	ID        string `json:"id"`
	Query     string `json:"query"`
	Pred      string `json:"pred,omitempty"`
	Arity     int    `json:"arity,omitempty"`
	Adornment string `json:"adornment,omitempty"`
	Class     string `json:"class,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// Cached/Maintained report how the result cache served the answer;
	// Streamed marks NDJSON (or limit'ed) deliveries.
	Cached     bool   `json:"cached,omitempty"`
	Maintained bool   `json:"maintained,omitempty"`
	Streamed   bool   `json:"streamed,omitempty"`
	Epoch      uint64 `json:"epoch"`
	Rounds     int    `json:"rounds"`
	Derived    int    `json:"derived"`
	// Cost is the plan's estimated enumeration cost (tuples visited) under
	// its compiled join orders; Visited is the actual count. Both 0 when the
	// evaluation ran on the dynamic greedy ordering.
	Cost      int64 `json:"cost,omitempty"`
	Visited   int64 `json:"visited,omitempty"`
	Rows      int   `json:"rows"`
	Truncated bool  `json:"truncated,omitempty"`
	// Error classifies a failed request: "client" (the request was wrong),
	// "canceled" (the client left), "engine" (the evaluation failed).
	// Empty on success.
	Error   string          `json:"error,omitempty"`
	Start   time.Time       `json:"start"`
	WallUS  int64           `json:"wall_us"`
	EvalUS  int64           `json:"eval_us"`
	Sampled bool            `json:"sampled,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

// InflightQuery is one registered-but-unfinished query: what /debug/queries
// shows for requests still evaluating (or hung).
type InflightQuery struct {
	ID    string    `json:"id"`
	Query string    `json:"query"`
	Start time.Time `json:"start"`
	AgeUS int64     `json:"age_us"`
}

// ring is a fixed-capacity overwrite-oldest buffer of records. The zero
// value with a nil recs slice is a valid empty ring that drops everything.
type ring struct {
	recs []QueryRecord
	next int   // slot the next record lands in
	n    int64 // total records ever pushed
}

func newRing(size int) ring {
	if size <= 0 {
		return ring{}
	}
	return ring{recs: make([]QueryRecord, size)}
}

func (r *ring) push(rec QueryRecord) {
	if len(r.recs) == 0 {
		return
	}
	r.recs[r.next] = rec
	r.next = (r.next + 1) % len(r.recs)
	r.n++
}

// snapshot returns the ring's records newest-first.
func (r *ring) snapshot() []QueryRecord {
	live := int(r.n)
	if live > len(r.recs) {
		live = len(r.recs)
	}
	out := make([]QueryRecord, 0, live)
	for i := 1; i <= live; i++ {
		// next-1 is the newest slot, walking backwards.
		out = append(out, r.recs[(r.next-i+len(r.recs))%len(r.recs)])
	}
	return out
}

// DefaultJournalSize bounds the recent and slow rings when the caller
// passes 0.
const DefaultJournalSize = 256

// Journal is the bounded query journal: a recent ring every completed
// request lands in, a slow ring that only requests at or above the latency
// threshold enter (so a burst of fast queries can never evict the one slow
// request worth debugging), and an in-flight table registered at query
// start. All methods are safe on a nil receiver and do nothing there.
type Journal struct {
	mu       sync.Mutex
	recent   ring
	slow     ring
	thresh   time.Duration
	inflight []inflightEntry
	live     int
}

type inflightEntry struct {
	id    string
	query string
	start time.Time
	used  bool
}

// NewJournal builds a journal with the given ring capacity (0 means
// DefaultJournalSize; the slow ring gets the same capacity) and slow-query
// threshold: a completed record whose wall time is >= slowThreshold also
// enters the slow ring. A negative threshold disables the slow ring; zero
// counts every query as slow (useful in tests and smoke scripts).
func NewJournal(size int, slowThreshold time.Duration) *Journal {
	if size <= 0 {
		size = DefaultJournalSize
	}
	j := &Journal{
		recent: newRing(size),
		thresh: slowThreshold,
		// The in-flight table starts small and grows only when more
		// requests than its capacity are simultaneously live.
		inflight: make([]inflightEntry, 16),
	}
	if slowThreshold >= 0 {
		j.slow = newRing(size)
	}
	return j
}

// SlowThreshold returns the configured slow-query latency bound (negative
// when the slow ring is disabled).
func (j *Journal) SlowThreshold() time.Duration {
	if j == nil {
		return -1
	}
	return j.thresh
}

// Begin registers an in-flight query and returns its token for End. On a
// nil journal it returns -1, which End ignores.
func (j *Journal) Begin(id, query string) int {
	if j == nil {
		return -1
	}
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.inflight {
		if !j.inflight[i].used {
			j.inflight[i] = inflightEntry{id: id, query: query, start: now, used: true}
			j.live++
			return i
		}
	}
	// Table full: grow. Rare (needs more simultaneously live requests than
	// ever before), so the allocation stays off the steady-state path.
	j.inflight = append(j.inflight, inflightEntry{id: id, query: query, start: now, used: true})
	j.live++
	return len(j.inflight) - 1
}

// End unregisters an in-flight query. Safe to call with -1 (nil-journal
// Begin) and idempotent per token.
func (j *Journal) End(token int) {
	if j == nil || token < 0 {
		return
	}
	j.mu.Lock()
	if token < len(j.inflight) && j.inflight[token].used {
		j.inflight[token] = inflightEntry{}
		j.live--
	}
	j.mu.Unlock()
}

// Record appends a completed-query record to the recent ring, and to the
// slow ring when its wall time reaches the threshold. The record is copied
// by value into preallocated slots — no allocation.
func (j *Journal) Record(rec QueryRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.recent.push(rec)
	if j.thresh >= 0 && rec.WallUS >= j.thresh.Microseconds() {
		j.slow.push(rec)
	}
	j.mu.Unlock()
}

// Recent returns the completed-query ring, newest first.
func (j *Journal) Recent() []QueryRecord {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recent.snapshot()
}

// Slow returns the slow-query ring, newest first.
func (j *Journal) Slow() []QueryRecord {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slow.snapshot()
}

// Inflight returns the registered-but-unfinished queries with their ages,
// oldest first — a hung query sorts to the top.
func (j *Journal) Inflight() []InflightQuery {
	if j == nil {
		return nil
	}
	now := time.Now()
	j.mu.Lock()
	out := make([]InflightQuery, 0, j.live)
	for i := range j.inflight {
		if e := &j.inflight[i]; e.used {
			out = append(out, InflightQuery{
				ID:    e.id,
				Query: e.query,
				Start: e.start,
				AgeUS: now.Sub(e.start).Microseconds(),
			})
		}
	}
	j.mu.Unlock()
	for i := 1; i < len(out); i++ { // insertion sort: the table is small
		for k := i; k > 0 && out[k].Start.Before(out[k-1].Start); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// MountJournal registers the journal's debug endpoints on the mux:
//
//	/debug/queries       {slow_threshold_us, inflight, recent, slow}
//	/debug/queries/slow  {slow_threshold_us, slow}
//
// The handlers snapshot under the journal mutex and marshal outside it, so
// scraping never stalls the serving path.
func MountJournal(mux *http.ServeMux, j *Journal) {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	// A disabled slow ring (or disabled journal) reports -1, not the
	// microsecond truncation of the negative sentinel.
	threshUS := func() int64 {
		if t := j.SlowThreshold(); t >= 0 {
			return t.Microseconds()
		}
		return -1
	}
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"slow_threshold_us": threshUS(),
			"inflight":          j.Inflight(),
			"recent":            j.Recent(),
			"slow":              j.Slow(),
		})
	})
	mux.HandleFunc("/debug/queries/slow", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"slow_threshold_us": threshUS(),
			"slow":              j.Slow(),
		})
	})
}

// Sampler decides which requests get a full span tree attached: one in
// every N. A nil sampler never samples, which is how the serving layer
// keeps the nil-tracer zero-allocation hot path when sampling is off.
type Sampler struct {
	n   uint64
	ctr atomic.Uint64
}

// NewSampler returns a sampler selecting 1 in every rate requests (the
// first request of each window is the sampled one, so tests and smoke
// scripts see a trace immediately). rate <= 0 returns nil — never sample.
func NewSampler(rate int) *Sampler {
	if rate <= 0 {
		return nil
	}
	return &Sampler{n: uint64(rate)}
}

// Sample reports whether this request is the sampled one. Lock-free, no
// allocation, false on a nil sampler.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return (s.ctr.Add(1)-1)%s.n == 0
}
