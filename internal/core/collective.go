package core

import (
	"encoding/binary"
	"fmt"
)

// Collective operations, built on the runtime's own point-to-point layer
// (and therefore exercising the same CRI/progress/matching machinery the
// paper studies). As in MPI, all members of a communicator must call the
// same collectives in the same order; each rank calls with its own Thread.
//
// Internal tags: every collective call draws a per-communicator sequence
// number that all ranks advance in lockstep (guaranteed by the same-order
// rule), so concurrent traffic from earlier/later collectives can never
// cross-match.

const collTagBase int32 = -10000

// collTag derives the internal tag for step of collective call seq.
func collTag(seq uint32, step int) int32 {
	return collTagBase - int32(seq%100000)*16 - int32(step%16)
}

func (c *Comm) nextCollSeq() uint32 {
	return c.collSeq.Add(1)
}

// vrank maps a rank into the root-relative virtual ordering used by the
// binomial trees.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

func unvrank(v, root, n int) int { return (v + root) % n }

// Bcast broadcasts buf from root to all members over a binomial tree
// (MPI_Bcast). Every rank passes a buffer of identical length; non-roots
// receive into it.
func (c *Comm) Bcast(th *Thread, root int, buf []byte) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	n := len(c.group)
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	tag := collTag(seq, 0)
	v := vrank(c.myRank, root, n)

	// Receive from parent (clear lowest set bit).
	if v != 0 {
		parent := unvrank(v&(v-1), root, n)
		st, err := c.recvInternalInto(th, parent, tag, buf)
		if err != nil {
			return fmt.Errorf("core: bcast recv: %w", err)
		}
		if st.Count != len(buf) {
			return fmt.Errorf("core: bcast length mismatch: got %d, want %d", st.Count, len(buf))
		}
	}
	// Send to children: set bits above the lowest set bit of v.
	lowest := v & (-v)
	if v == 0 {
		lowest = n // root: all bits
	}
	// Issue every child send before waiting on any: a serialized
	// send-then-wait loop would pipeline the subtrees one eager copy at a
	// time instead of fanning out.
	var reqs []*Request
	for bit := 1; bit < lowest && v+bit < n; bit <<= 1 {
		child := unvrank(v+bit, root, n)
		req, err := c.isend(th, child, tag, buf)
		if err != nil {
			return fmt.Errorf("core: bcast send: %w", err)
		}
		reqs = append(reqs, req)
	}
	return WaitAll(th, reqs...)
}

// ReduceOp combines src into dst element-wise; both have equal length.
type ReduceOp interface {
	Reduce(dst, src []byte)
}

// reduceFunc adapts a function to ReduceOp.
type reduceFunc func(dst, src []byte)

func (f reduceFunc) Reduce(dst, src []byte) { f(dst, src) }

// OpSumInt64 adds little-endian int64 lanes (MPI_SUM on MPI_INT64_T).
var OpSumInt64 ReduceOp = reduceFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(dst[i:])) + int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(v))
	}
})

// OpMaxInt64 keeps the per-lane maximum (MPI_MAX on MPI_INT64_T).
var OpMaxInt64 ReduceOp = reduceFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(dst[i:], uint64(b))
		}
	}
})

// OpMinInt64 keeps the per-lane minimum (MPI_MIN on MPI_INT64_T).
var OpMinInt64 ReduceOp = reduceFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		if b < a {
			binary.LittleEndian.PutUint64(dst[i:], uint64(b))
		}
	}
})

// OpBor ORs bytes (MPI_BOR on MPI_BYTE).
var OpBor ReduceOp = reduceFunc(func(dst, src []byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] |= src[i]
	}
})

// Reduce combines every member's in buffer with op, leaving the result in
// root's out buffer (MPI_Reduce). in and out must have equal lengths on all
// ranks; out may be nil on non-roots.
func (c *Comm) Reduce(th *Thread, root int, in, out []byte, op ReduceOp) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	n := len(c.group)
	seq := c.nextCollSeq()
	tag := collTag(seq, 1)
	v := vrank(c.myRank, root, n)

	// Binomial reduction: each node accumulates children's partials, then
	// forwards to its parent.
	acc := append([]byte(nil), in...)
	tmp := make([]byte, len(in))
	for bit := 1; bit < n; bit <<= 1 {
		if v&bit != 0 {
			parent := unvrank(v&^bit, root, n)
			if err := c.sendInternal(th, parent, tag, acc); err != nil {
				return fmt.Errorf("core: reduce send: %w", err)
			}
			return nil
		}
		if v+bit < n {
			child := unvrank(v+bit, root, n)
			if _, err := c.recvInternalInto(th, child, tag, tmp); err != nil {
				return fmt.Errorf("core: reduce recv: %w", err)
			}
			op.Reduce(acc, tmp)
		}
	}
	if c.myRank != root {
		return fmt.Errorf("core: reduce internal error: non-root terminated as root")
	}
	if out == nil {
		return fmt.Errorf("core: reduce root needs an output buffer")
	}
	copy(out, acc)
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast (MPI_Allreduce). in and
// out must be equal-length on every rank.
func (c *Comm) Allreduce(th *Thread, in, out []byte, op ReduceOp) error {
	if len(out) != len(in) {
		return fmt.Errorf("core: allreduce buffer lengths differ (%d vs %d)", len(in), len(out))
	}
	if c.myRank == 0 {
		if err := c.Reduce(th, 0, in, out, op); err != nil {
			return err
		}
	} else {
		if err := c.Reduce(th, 0, in, nil, op); err != nil {
			return err
		}
	}
	return c.Bcast(th, 0, out)
}

// Gather collects each member's send buffer into root's recv buffer,
// ordered by rank (MPI_Gather). recv must be len(send)*Size() bytes at the
// root; nil elsewhere.
func (c *Comm) Gather(th *Thread, root int, send, recv []byte) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	n := len(c.group)
	seq := c.nextCollSeq()
	tag := collTag(seq, 2)
	if c.myRank != root {
		return c.sendInternal(th, root, tag, send)
	}
	chunk := len(send)
	if len(recv) < chunk*n {
		return fmt.Errorf("core: gather recv buffer %d < %d", len(recv), chunk*n)
	}
	copy(recv[root*chunk:], send)
	// Post all receives, then wait: ranks arrive in any order.
	reqs := make([]*Request, 0, n-1)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		reqs = append(reqs, c.post(th, r, tag, recv[r*chunk:(r+1)*chunk]))
	}
	return WaitAll(th, reqs...)
}

// Scatter distributes equal chunks of root's send buffer to every member's
// recv buffer (MPI_Scatter). send must be len(recv)*Size() at the root.
func (c *Comm) Scatter(th *Thread, root int, send, recv []byte) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	n := len(c.group)
	seq := c.nextCollSeq()
	tag := collTag(seq, 3)
	chunk := len(recv)
	if c.myRank == root {
		if len(send) < chunk*n {
			return fmt.Errorf("core: scatter send buffer %d < %d", len(send), chunk*n)
		}
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				copy(recv, send[r*chunk:(r+1)*chunk])
				continue
			}
			req, err := c.isend(th, r, tag, send[r*chunk:(r+1)*chunk])
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return WaitAll(th, reqs...)
	}
	_, err := c.recvInternalInto(th, root, tag, recv)
	return err
}

// Allgather concatenates every member's send buffer into every member's
// recv buffer in rank order, using a ring (MPI_Allgather). recv must be
// len(send)*Size() bytes on every rank.
func (c *Comm) Allgather(th *Thread, send, recv []byte) error {
	n := len(c.group)
	chunk := len(send)
	if len(recv) < chunk*n {
		return fmt.Errorf("core: allgather recv buffer %d < %d", len(recv), chunk*n)
	}
	seq := c.nextCollSeq()
	copy(recv[c.myRank*chunk:], send)
	if n == 1 {
		return nil
	}
	right := (c.myRank + 1) % n
	left := (c.myRank - 1 + n) % n
	// Ring: at step s, forward the chunk originally owned by
	// (myRank - s + n) % n to the right neighbor.
	for s := 0; s < n-1; s++ {
		tag := collTag(seq, s)
		outOwner := (c.myRank - s + n) % n
		inOwner := (c.myRank - s - 1 + n) % n
		rreq := c.post(th, left, tag, recv[inOwner*chunk:(inOwner+1)*chunk])
		if err := c.sendInternal(th, right, tag, recv[outOwner*chunk:(outOwner+1)*chunk]); err != nil {
			return err
		}
		if err := rreq.Wait(th); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall sends chunk i of send to rank i and receives rank j's chunk j
// into slot j of recv (MPI_Alltoall). Both buffers are chunk*Size() bytes
// with chunk = len(send)/Size().
func (c *Comm) Alltoall(th *Thread, send, recv []byte) error {
	n := len(c.group)
	if len(send)%n != 0 || len(recv) != len(send) {
		return fmt.Errorf("core: alltoall buffers must be equal and divisible by %d", n)
	}
	chunk := len(send) / n
	seq := c.nextCollSeq()
	copy(recv[c.myRank*chunk:(c.myRank+1)*chunk], send[c.myRank*chunk:(c.myRank+1)*chunk])
	// Pairwise exchange: at step s talk to (rank+s) and (rank-s).
	for s := 1; s < n; s++ {
		tag := collTag(seq, s)
		to := (c.myRank + s) % n
		from := (c.myRank - s + n) % n
		rreq := c.post(th, from, tag, recv[from*chunk:(from+1)*chunk])
		if err := c.sendInternal(th, to, tag, send[to*chunk:(to+1)*chunk]); err != nil {
			return err
		}
		if err := rreq.Wait(th); err != nil {
			return err
		}
	}
	return nil
}

// recvInternalInto blocks for an internal-tag message into buf.
func (c *Comm) recvInternalInto(th *Thread, src int, tag int32, buf []byte) (Status, error) {
	req := c.post(th, src, tag, buf)
	err := req.Wait(th)
	return req.Status(), err
}
