package netsim

import (
	"fmt"
	"time"
)

// Shard-transit payload pooling.
//
// A sharded world snapshots every packet payload at the WAN edge
// (CopyPayload) so no shard reads memory another shard may still mutate.
// PR 7 allocated each snapshot fresh, which put the whole payload graph of
// every delivered packet on the garbage collector — a 22x allocation tax
// over the classic path. This file supplies the recycle half of the
// contract: each payload package registers a TransitClass for its wire
// type, leases snapshot storage from the sending shard's TransitPool in
// TransitCopy, and returns it in TransitRelease once the receiving side is
// done with the copy.
//
// Ownership rule, one for every payload on both engines: each Send ends in
// exactly one release of the payload it was handed, made by whoever reads the
// payload last. That is the network when it drops the packet (unknown
// endpoint, a full queue, loss, a detached host, no handler — every cause
// goes through Network.drop) and when forward has snapshotted it for the
// destination's shard: the lease on the original ends there, on the sending
// shard, and the snapshot is released in its turn by the same rule. Otherwise
// it is the receiving transport, at every consume and drop point of its
// receive path — a conn's close among them: a closed conn holds nothing —
// once the destination handler has the packet. What a release does is the
// payload's business: an original hands its cells back to the pool they
// were leased from (an rdt arena, a transport stack's segment or
// ACK free-list), a snapshot goes to the RECEIVING shard's transit pool —
// only that shard's worker (or the single-threaded control loop between
// windows) touches it, exactly like the Packet free-list — and Fabric.drain
// rebalances the pools between windows so one-directional flows (a server
// shard streaming to a client shard) do not starve the sender's pool while
// the receiver's overflows. A payload type with nothing to give back simply
// does not implement TransitRelease.
//
// A sender that reads a payload after Send — to retransmit it, say — takes a
// reference of its own BEFORE the call: a send-side drop releases
// synchronously.

// TransitClass identifies one pooled transit payload type. Payload packages
// allocate one per wire type at init time via RegisterTransitClass.
type TransitClass int

// numTransitClasses counts registered classes. Registration happens only
// during package initialization (single-threaded by the language spec).
var numTransitClasses int

// RegisterTransitClass allocates a pool slot for one transit payload type.
// Call once per type, from a package-level var initializer.
func RegisterTransitClass() TransitClass {
	c := TransitClass(numTransitClasses)
	numTransitClasses++
	return c
}

// transitFreeMax bounds one class's free-list on one shard; beyond it a
// released copy goes to the garbage collector instead of pinning a burst's
// peak in memory forever.
const transitFreeMax = 4096

// TransitPool holds a shard's per-class transit free-lists. Each Network
// owns one; it follows the single-threaded clock discipline of everything
// else on the Network.
type TransitPool struct {
	free [][]any
}

// Get pops a recycled object of class c, or returns nil when the class
// free-list is empty and the caller must allocate.
func (tp *TransitPool) Get(c TransitClass) any {
	if int(c) < len(tp.free) {
		if s := tp.free[c]; len(s) > 0 {
			v := s[len(s)-1]
			s[len(s)-1] = nil
			tp.free[c] = s[:len(s)-1]
			return v
		}
	}
	return nil
}

// classLen reports the free-list length for class c.
func (tp *TransitPool) classLen(c int) int {
	if c < len(tp.free) {
		return len(tp.free[c])
	}
	return 0
}

// Put recycles an object of class c.
func (tp *TransitPool) Put(c TransitClass, v any) {
	for int(c) >= len(tp.free) {
		tp.free = append(tp.free, nil)
	}
	if len(tp.free[c]) < transitFreeMax {
		tp.free[c] = append(tp.free[c], v)
	}
}

// Transferable is implemented by payloads that can cross a shard boundary.
// TransitCopy returns a deep snapshot sharing no mutable memory with the
// original — value semantics at the wire, standing in for the serialization
// a real network would perform. Snapshot storage should be leased from tp
// (falling back to allocation when the pool is empty) so the copy can be
// recycled through TransitRelease.
type Transferable interface {
	TransitCopy(tp *TransitPool) any
}

// TransitReleasable is implemented by payloads that live in a pool: a
// snapshot recycles its storage into tp, an original goes back to the pool it
// was leased from and ignores tp. It is called once per Send (see the
// ownership rule above); a payload that is in no pool — decoded from a
// socket, restored from a snapshot — makes it a no-op.
type TransitReleasable interface {
	TransitRelease(tp *TransitPool)
}

// CopyPayload snapshots a packet payload for transit between shards,
// leasing snapshot storage from tp. Transferable payloads copy themselves
// (recursively, for nested payloads); immutable value types pass through;
// anything else is a bug in the caller — a payload type that was never
// taught to cross a shard boundary.
func CopyPayload(tp *TransitPool, p any) any {
	switch v := p.(type) {
	case nil:
		return nil
	case Transferable:
		return v.TransitCopy(tp)
	case string, bool,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, time.Duration:
		return v
	default:
		panic(fmt.Sprintf("netsim: payload type %T cannot cross a shard boundary (implement TransitCopy)", p))
	}
}

// ReleaseTransit ends one reader's lease on payload p; tp takes it if it is a
// snapshot. Safe on any payload: unpooled types (and nil) are ignored.
func ReleaseTransit(tp *TransitPool, p any) {
	if r, ok := p.(TransitReleasable); ok {
		r.TransitRelease(tp)
	}
}

// ReleaseTransit ends this network's — or the receiving transport's — lease on
// a payload; receive paths call it on every exit, consumed or dropped.
func (n *Network) ReleaseTransit(p any) { ReleaseTransit(&n.transit, p) }
