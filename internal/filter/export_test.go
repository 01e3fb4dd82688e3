package filter

import "repro/internal/graph"

// LastCut reports the threshold cut s remembers, if any.
func LastCut(s *Scores) (t float64, sel graph.Selection, ok bool) {
	c := s.cut.Load()
	if c == nil {
		return 0, graph.Selection{}, false
	}
	return c.t, c.sel, true
}
