package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// session is one receiver's bookkeeping: how many estimates it was
// served through Fetch and how stale they were. Sessions open on first
// use and never hold estimates of their own — every read is the
// freshest-wins published value.
type session struct {
	id string

	mu       sync.Mutex
	served   uint64
	lastAge  time.Duration
	ageTotal time.Duration
	maxAge   time.Duration
	openedAt time.Time
}

// LinkStats is a point-in-time snapshot of one session.
type LinkStats struct {
	ID       string
	Served   uint64        // estimates read through Fetch
	LastAge  time.Duration // age of the most recently served estimate
	MeanAge  time.Duration
	MaxAge   time.Duration
	OpenedAt time.Time
}

// sessionFor returns the open session with the given id, opening it if
// needed. Lookups of an open session take only the read lock; an opener
// re-checks under the write lock, so concurrent first uses of one id
// share a session and never trip the cap against each other. It fails
// for an empty id or when Config.MaxLinks sessions are already open.
func (s *Service) sessionFor(id string) (*session, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: link id must be non-empty")
	}
	s.state.RLock()
	l := s.links[id]
	s.state.RUnlock()
	if l != nil {
		return l, nil
	}
	s.state.Lock()
	defer s.state.Unlock()
	if l := s.links[id]; l != nil {
		return l, nil
	}
	if s.cfg.MaxLinks > 0 && len(s.links) >= s.cfg.MaxLinks {
		return nil, fmt.Errorf("%w (%d)", ErrLinkLimit, s.cfg.MaxLinks)
	}
	l = &session{id: id, openedAt: s.clock()}
	s.links[id] = l
	return l, nil
}

// CloseLink removes a session; it reports whether the id was open.
func (s *Service) CloseLink(id string) bool {
	s.state.Lock()
	defer s.state.Unlock()
	_, ok := s.links[id]
	delete(s.links, id)
	return ok
}

// Links returns a snapshot of every open session, sorted by id. The
// collected slice is sorted before any per-session state is touched, so
// map iteration order never reaches the output (vvd-lint maporder).
func (s *Service) Links() []LinkStats {
	s.state.RLock()
	links := make([]*session, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.state.RUnlock()
	sort.Slice(links, func(i, j int) bool { return links[i].id < links[j].id })
	out := make([]LinkStats, len(links))
	for i, l := range links {
		out[i] = l.stats()
	}
	return out
}

// stats returns a snapshot of the session counters.
func (l *session) stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LinkStats{
		ID:       l.id,
		Served:   l.served,
		LastAge:  l.lastAge,
		MaxAge:   l.maxAge,
		OpenedAt: l.openedAt,
	}
	if l.served > 0 {
		st.MeanAge = l.ageTotal / time.Duration(l.served)
	}
	return st
}

// record updates the session statistics for one served estimate of the
// given age.
func (l *session) record(age time.Duration) {
	l.mu.Lock()
	l.served++
	l.lastAge = age
	l.ageTotal += age
	if age > l.maxAge {
		l.maxAge = age
	}
	l.mu.Unlock()
}
