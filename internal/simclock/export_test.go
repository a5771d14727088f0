package simclock

import "time"

// RunFor executes events within the next d of virtual time.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now + d) }

// FreeListLen reports the size of the event free-list.
func (c *Clock) FreeListLen() int { return len(c.free) }
