package core

import "fmt"

// Scan computes the inclusive prefix reduction: rank r's out buffer holds
// op over the in buffers of ranks 0..r (MPI_Scan). Linear pipeline: each
// rank receives the prefix from rank-1, folds its contribution, forwards.
func (c *Comm) Scan(th *Thread, in, out []byte, op ReduceOp) error {
	if len(out) != len(in) {
		return fmt.Errorf("core: scan buffer lengths differ (%d vs %d)", len(in), len(out))
	}
	seq := c.nextCollSeq()
	tag := collTag(seq, 4)
	copy(out, in)
	if c.myRank > 0 {
		prev := make([]byte, len(in))
		if _, err := c.recvInternalInto(th, c.myRank-1, tag, prev); err != nil {
			return fmt.Errorf("core: scan recv: %w", err)
		}
		// out = prefix(0..r-1) combined with our contribution.
		copy(out, prev)
		op.Reduce(out, in)
	}
	if c.myRank < len(c.group)-1 {
		if err := c.sendInternal(th, c.myRank+1, tag, out); err != nil {
			return fmt.Errorf("core: scan send: %w", err)
		}
	}
	return nil
}

// Exscan computes the exclusive prefix reduction: rank r's out holds op
// over ranks 0..r-1; rank 0's out is left untouched (MPI_Exscan).
func (c *Comm) Exscan(th *Thread, in, out []byte, op ReduceOp) error {
	if len(out) != len(in) {
		return fmt.Errorf("core: exscan buffer lengths differ (%d vs %d)", len(in), len(out))
	}
	seq := c.nextCollSeq()
	tag := collTag(seq, 5)
	// The value forwarded to rank r+1 is the inclusive prefix through r.
	inclusive := append([]byte(nil), in...)
	if c.myRank > 0 {
		prev := make([]byte, len(in))
		if _, err := c.recvInternalInto(th, c.myRank-1, tag, prev); err != nil {
			return fmt.Errorf("core: exscan recv: %w", err)
		}
		copy(out, prev)
		copy(inclusive, prev)
		op.Reduce(inclusive, in)
	}
	if c.myRank < len(c.group)-1 {
		if err := c.sendInternal(th, c.myRank+1, tag, inclusive); err != nil {
			return fmt.Errorf("core: exscan send: %w", err)
		}
	}
	return nil
}

// ReduceScatterBlock reduces equal-sized blocks across all ranks and
// scatters block r to rank r (MPI_Reduce_scatter_block). in is
// len(out)*Size() bytes on every rank; rank r receives the reduction of
// everyone's r-th block into out.
func (c *Comm) ReduceScatterBlock(th *Thread, in, out []byte, op ReduceOp) error {
	n := len(c.group)
	block := len(out)
	if len(in) != block*n {
		return fmt.Errorf("core: reduce_scatter_block: in %d bytes, want %d", len(in), block*n)
	}
	// Reduce the full vector at rank 0, then scatter. (Simple algorithm;
	// a production pairwise-exchange variant halves the traffic but has
	// identical semantics.)
	var full []byte
	if c.myRank == 0 {
		full = make([]byte, block*n)
	}
	if err := c.Reduce(th, 0, in, full, op); err != nil {
		return err
	}
	return c.Scatter(th, 0, full, out)
}
