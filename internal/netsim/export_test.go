package netsim

// Congestion returns the current cross-traffic level on the ordered path
// from -> to. A path that has carried traffic reports its live AR(1) state
// (advanced to now); a pair with no path state yet — including never-seen
// names — reports the route's static mean without creating anything.
func (n *Network) Congestion(from, to string) float64 {
	p := n.pathLookup(n.HostIDOf(from), n.HostIDOf(to))
	if p == nil {
		return clamp01(n.routeByName(from, to).CongestionMean)
	}
	rng, _ := n.streams(p, n.HostIDOf(from), n.HostIDOf(to))
	n.resampleCongestion(p, rng)
	return p.congestion
}

// pathLookup returns the existing path state for an ordered pair, or nil.
// Unlike path it never creates state, so inspection stays read-only.
func (n *Network) pathLookup(from, to HostID) *pathState {
	if int(from) >= len(n.rows) || int(to) >= len(n.rows[from]) {
		return nil
	}
	return n.rows[from][to]
}
