package storage

import (
	"fmt"
	"sort"
	"sync"
)

// MemConfig tunes the in-memory backend.
type MemConfig struct {
	// Generations is how many generations of each record to keep (default 3).
	Generations int
}

// Mem is the in-memory Store for tests: same envelope framing, generation
// retention and rollback semantics as FS, no disk. It implements Tearer and
// Corrupter so chaos tests can run against it byte-for-byte like the
// filesystem backend.
type Mem struct {
	keep int

	mu      sync.Mutex
	recs    map[string][][]byte // record key → generations, oldest first (envelope-framed)
	corrupt map[string][][]byte // quarantined generations, for test inspection
	closed  bool
}

var (
	_ Store     = (*Mem)(nil)
	_ Tearer    = (*Mem)(nil)
	_ Corrupter = (*Mem)(nil)
)

// NewMem builds an in-memory store.
func NewMem(cfg MemConfig) *Mem {
	if cfg.Generations <= 0 {
		cfg.Generations = 3
	}
	return &Mem{
		keep:    cfg.Generations,
		recs:    make(map[string][][]byte),
		corrupt: make(map[string][][]byte),
	}
}

// Put implements Store.
func (s *Mem) Put(kind Kind, id string, data []byte) error {
	key := recordKey(kind, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: mem put %s: store closed", key)
	}
	gens := append(s.recs[key], encodeRecord(data))
	if len(gens) > s.keep {
		gens = gens[len(gens)-s.keep:]
	}
	s.recs[key] = gens
	return nil
}

// Get implements Store with the same newest-verified-generation rollback as
// the filesystem backend.
func (s *Mem) Get(kind Kind, id string) ([]byte, error) {
	key := recordKey(kind, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.recs[key]
	for i := len(gens) - 1; i >= 0; i-- {
		payload, err := decodeRecord(gens[i])
		if err != nil {
			s.corrupt[key] = append(s.corrupt[key], gens[i])
			gens = gens[:i]
			s.recs[key] = gens
			continue
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		return out, nil
	}
	if len(gens) == 0 {
		delete(s.recs, key)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
}

// Delete implements Store.
func (s *Mem) Delete(kind Kind, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recs, recordKey(kind, id))
	return nil
}

// List implements Store.
func (s *Mem) List(kind Kind) ([]string, error) {
	suffix := "." + string(kind)
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for key, gens := range s.recs {
		if len(gens) > 0 && len(key) > len(suffix) && key[len(key)-len(suffix):] == suffix {
			ids = append(ids, key[:len(key)-len(suffix)])
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Probe implements Store.
func (s *Mem) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: mem probe: store closed")
	}
	return nil
}

// Close implements Store.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// PutTorn implements Tearer.
func (s *Mem) PutTorn(kind Kind, id string, data []byte, offset int) error {
	key := recordKey(kind, id)
	env := encodeRecord(data)
	if offset < 0 {
		offset = 0
	}
	if offset > len(env) {
		offset = len(env)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := append(s.recs[key], env[:offset])
	if len(gens) > s.keep+1 { // torn writes bypass prune-on-success; cap anyway
		gens = gens[len(gens)-(s.keep+1):]
	}
	s.recs[key] = gens
	return nil
}

// CorruptHead implements Corrupter.
func (s *Mem) CorruptHead(kind Kind, id string, keep int) error {
	key := recordKey(kind, id)
	if keep < 0 {
		keep = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.recs[key]
	if len(gens) == 0 {
		return nil
	}
	head := gens[len(gens)-1]
	if keep < len(head) {
		gens[len(gens)-1] = head[:keep]
	}
	return nil
}
