package transport

// Counters returns (retransmits, fastRetransmits, timeouts).
func (c *simTCP) Counters() (uint64, uint64, uint64) {
	return c.retransmits, c.fastRexmits, c.timeouts
}
