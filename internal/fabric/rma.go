package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// MemRegion is a registered remote-memory region — the fabric-level object
// behind an MPI window. Remote peers address it by (device, region id).
// Puts and gets move bytes without any involvement of the target process's
// CPU, which is exactly the property that makes one-sided communication
// thread-friendly in the paper's Section II-D.
type MemRegion struct {
	id  uint64
	buf []byte
	// atomMu serializes accumulate operations, which MPI defines to be
	// element-wise atomic. Plain puts/gets are not serialized: concurrent
	// overlapping puts are erroneous at the MPI level, as in the standard's
	// separate memory model.
	atomMu sync.Mutex
}

// ID returns the region's registration id.
func (r *MemRegion) ID() uint64 { return r.id }

// Size returns the region length in bytes.
func (r *MemRegion) Size() int { return len(r.buf) }

// regSlab is how many regions share one allocation (2.5 KiB).
const regSlab = 64

// RegisterMemory registers buf for remote access and returns its region,
// carved from the device's region slab: a rendezvous registers one sink per
// message. A region is never handed out twice, so a stale handle is a gone
// region, never another's.
func (d *Device) RegisterMemory(buf []byte) transport.MemRegion {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if len(d.regSlab) == 0 {
		d.regSlab = make([]MemRegion, regSlab)
	}
	r := &d.regSlab[0]
	d.regSlab = d.regSlab[1:]
	d.nextReg++
	r.id, r.buf = d.nextReg, buf
	d.regions[r.id] = r
	return r
}

// DeregisterMemory removes a region from remote visibility. The region lets
// go of its buffer, so its slab pins no user memory.
func (d *Device) DeregisterMemory(r transport.MemRegion) {
	if rr, ok := r.(*MemRegion); ok && rr != nil {
		d.regMu.Lock()
		delete(d.regions, rr.id)
		rr.buf = nil
		d.regMu.Unlock()
	}
}

// regionBytes returns the buffer registered under id, read under the lock
// deregistration clears it under.
func (d *Device) regionBytes(id uint64) ([]byte, bool) {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	if r, ok := d.regions[id]; ok {
		return r.buf, true
	}
	return nil, false
}

// errBounds is returned when a one-sided access falls outside the region.
var errBounds = errors.New("fabric: one-sided access out of region bounds")

// boundsError wraps errBounds with the offending access.
type boundsError struct {
	Op     string
	Offset int
	Len    int
	Size   int
}

func (e *boundsError) Error() string {
	return fmt.Sprintf("fabric: %s [%d, %d) outside region of %d bytes",
		e.Op, e.Offset, e.Offset+e.Len, e.Size)
}

func (e *boundsError) Unwrap() error { return errBounds }

func checkBounds(op string, r *MemRegion, offset, n int) error {
	if offset < 0 || n < 0 || offset+n > len(r.buf) {
		return &boundsError{Op: op, Offset: offset, Len: n, Size: len(r.buf)}
	}
	return nil
}

// simRegion narrows a transport-level region handle to the fabric's concrete
// region. The initiators accept the interface so *Context satisfies
// transport.OneSided; a handle from another backend (or nil) is unreachable
// by construction and reported as such.
func simRegion(reg transport.MemRegion) (*MemRegion, error) {
	r, ok := reg.(*MemRegion)
	if !ok || r == nil {
		return nil, transport.ErrRegionUnavailable
	}
	return r, nil
}

// Put writes src into the remote region at offset — a direct memory write —
// and, with a non-nil token, posts a local PutComplete CQE carrying it
// (claimed first, so a full CQ refuses the put untouched). Every initiator
// finishes its work before it returns and the CQ is FIFO, so that CQE
// implies every operation issued on this context before it. The target's
// CPU is never involved.
func (c *Context) Put(reg transport.MemRegion, offset int, src []byte, token any) error {
	r, err := simRegion(reg)
	if err != nil {
		return err
	}
	if err := checkBounds("put", r, offset, len(src)); err != nil {
		return err
	}
	if token != nil {
		if err := c.claim(transport.CQE{Kind: transport.CQEPutComplete, Token: token}); err != nil {
			return err
		}
	}
	copy(r.buf[offset:], src)
	return nil
}

// Get reads len(dst) bytes from the remote region at offset into dst.
func (c *Context) Get(reg transport.MemRegion, offset int, dst []byte) error {
	r, err := simRegion(reg)
	if err != nil {
		return err
	}
	if err := checkBounds("get", r, offset, len(dst)); err != nil {
		return err
	}
	copy(dst, r.buf[offset:offset+len(dst)])
	return nil
}

// apply is the reduction op selects, on one int64 lane.
func apply(op transport.AccumulateOp, cur, v int64) int64 {
	switch op {
	case transport.AccSum:
		return cur + v
	case transport.AccReplace:
		return v
	case transport.AccMax:
		return max(cur, v)
	case transport.AccMin:
		return min(cur, v)
	}
	return cur
}

// Accumulate applies op element-wise over int64 lanes at offset. The
// operation is atomic with respect to other Accumulates on the same region
// (MPI's same-op atomicity guarantee) and never involves the target CPU —
// the "remote atomic" of the RDMA hardware.
func (c *Context) Accumulate(reg transport.MemRegion, offset int, operand []int64, op transport.AccumulateOp) error {
	r, err := simRegion(reg)
	if err != nil {
		return err
	}
	n := len(operand) * 8
	if err := checkBounds("accumulate", r, offset, n); err != nil {
		return err
	}
	if offset%8 != 0 {
		return &boundsError{Op: "accumulate (alignment)", Offset: offset, Len: n, Size: len(r.buf)}
	}
	r.atomMu.Lock()
	for i, v := range operand {
		p := r.buf[offset+8*i:]
		binary.LittleEndian.PutUint64(p, uint64(apply(op, int64(binary.LittleEndian.Uint64(p)), v)))
	}
	r.atomMu.Unlock()
	return nil
}

// FetchAndOp atomically applies op to the int64 at offset and writes the
// previous value into *result — the MPI_Fetch_and_op primitive RDMA NICs
// provide natively.
func (c *Context) FetchAndOp(reg transport.MemRegion, offset int, operand int64, op transport.AccumulateOp, result *int64) error {
	return c.atomic64("fetch_and_op", reg, offset, result, func(old int64) int64 {
		return apply(op, old, operand)
	})
}

// CompareAndSwap atomically replaces the int64 at offset with swap if it
// equals compare, writing the previous value into *result
// (MPI_Compare_and_swap).
func (c *Context) CompareAndSwap(reg transport.MemRegion, offset int, compare, swap int64, result *int64) error {
	return c.atomic64("compare_and_swap", reg, offset, result, func(old int64) int64 {
		if old == compare {
			return swap
		}
		return old
	})
}

// atomic64 is the single-lane remote atomic both of the above are: under the
// region's accumulate lock the int64 at offset becomes update(old), and old
// goes to *result (if non-nil).
func (c *Context) atomic64(name string, reg transport.MemRegion, offset int, result *int64, update func(old int64) int64) error {
	r, err := simRegion(reg)
	if err != nil {
		return err
	}
	if err := checkBounds(name, r, offset, 8); err != nil {
		return err
	}
	if offset%8 != 0 {
		return &boundsError{Op: name + " (alignment)", Offset: offset, Len: 8, Size: len(r.buf)}
	}
	r.atomMu.Lock()
	p := r.buf[offset:]
	old := int64(binary.LittleEndian.Uint64(p))
	binary.LittleEndian.PutUint64(p, uint64(update(old)))
	r.atomMu.Unlock()
	if result != nil {
		*result = old
	}
	return nil
}
