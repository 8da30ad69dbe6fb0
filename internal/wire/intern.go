package wire

// Interner is a bounded string cache for the decode hot path. The
// principals, channel names and term names crossing the ingest protocol
// are drawn from a small steady vocabulary (a monitored fleet re-logs
// the same names forever), but a naive decoder allocates a fresh string
// per field per record — the dominant per-record cost of the binary
// path. An interner turns the steady state into map hits: the decoder
// looks raw frame bytes up without allocating (the compiler elides the
// []byte→string conversion in a map index expression) and only
// allocates the first time a name is seen.
//
// Bounds are adversarial-input discipline, like every other limit in
// this package: only strings up to maxInternLen enter the cache, and
// the cache stops growing at maxInternEntries — a peer spraying unique
// names can deny later names the fast path, but cannot balloon memory.
// Interned strings are immutable and safe to share across records,
// batches and goroutines; an Interner itself is single-owner (one per
// decoding connection), not safe for concurrent use.
type Interner struct {
	m     map[string]string
	limit int // entries the cache may grow to
}

const (
	// maxInternEntries bounds one interner's vocabulary.
	maxInternEntries = 4096
	// maxInternLen bounds the length of strings worth interning; longer
	// names are allocated per decode (they are rare and dwarf the map
	// win anyway).
	maxInternLen = 128
)

// NewInterner returns an empty interner.
func NewInterner() *Interner { return NewInternerLimit(maxInternEntries) }

// NewInternerLimit returns an empty interner that caches up to entries
// strings: for a decoder reading trusted bytes whose vocabulary is
// larger than one connection's, such as a store recovering its own
// segments, where every repeated name cached is one copy fewer kept.
func NewInternerLimit(entries int) *Interner {
	return &Interner{m: make(map[string]string), limit: entries}
}

// Intern returns the canonical string for b, allocating only on first
// sight (while the cache has room).
func (it *Interner) Intern(b []byte) string {
	if s, ok := it.m[string(b)]; ok { // no-alloc lookup
		return s
	}
	s := string(b)
	if len(b) <= maxInternLen && len(it.m) < it.limit {
		it.m[s] = s
	}
	return s
}

// Len reports the number of cached strings.
func (it *Interner) Len() int { return len(it.m) }
