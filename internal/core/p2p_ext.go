package core

import (
	"fmt"
	"sort"
)

// Sendrecv performs a combined send and receive (MPI_Sendrecv): the send to
// dst and the receive from src proceed concurrently, so symmetric exchanges
// cannot deadlock.
func (c *Comm) Sendrecv(th *Thread, dst int, sendTag int32, sendBuf []byte,
	src int, recvTag int32, recvBuf []byte) (Status, error) {
	rreq, err := c.Irecv(th, src, recvTag, recvBuf)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.Isend(th, dst, sendTag, sendBuf)
	if err != nil {
		return Status{}, err
	}
	if err := sreq.Wait(th); err != nil {
		return Status{}, err
	}
	err = rreq.Wait(th)
	return rreq.Status(), err
}

// Ssend is the synchronous-mode send (MPI_Ssend): it completes only after
// the receiver has matched the message, regardless of size. Implemented by
// forcing the rendezvous path, whose FIN round-trip carries exactly that
// guarantee.
func (c *Comm) Ssend(th *Thread, dst int, tag int32, buf []byte) error {
	p := c.proc
	if th.proc != p {
		panic("core: Ssend with a thread from a different proc")
	}
	if err := c.checkRank(dst, "destination"); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("core: negative tag %d is reserved", tag)
	}
	if c.group[dst] == p.rank {
		// Self synchronous send: semantically equal to a buffered self
		// send followed by the matching receive; deliver eagerly.
		return c.Send(th, dst, tag, buf)
	}
	req, err := c.isendRendezvous(th, dst, tag, buf)
	if err != nil {
		return err
	}
	return req.Wait(th)
}

// PersistentSend is a persistent send request (MPI_Send_init): created
// once, started many times with the same arguments. Start re-issues the
// operation; Wait completes the current incarnation.
type PersistentSend struct {
	comm *Comm
	dst  int
	tag  int32
	buf  []byte
	cur  *Request
}

// SendInit creates a persistent send (not yet started).
func (c *Comm) SendInit(dst int, tag int32, buf []byte) (*PersistentSend, error) {
	if err := c.checkRank(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("core: negative tag %d is reserved", tag)
	}
	return &PersistentSend{comm: c, dst: dst, tag: tag, buf: buf}, nil
}

// Start begins one incarnation (MPI_Start). The previous incarnation must
// have completed.
func (ps *PersistentSend) Start(th *Thread) error {
	if ps.cur != nil && !ps.cur.Done() {
		return fmt.Errorf("core: persistent send started while active")
	}
	req, err := ps.comm.Isend(th, ps.dst, ps.tag, ps.buf)
	if err != nil {
		return err
	}
	ps.cur = req
	return nil
}

// Wait completes the current incarnation.
func (ps *PersistentSend) Wait(th *Thread) error {
	if ps.cur == nil {
		return fmt.Errorf("core: persistent send waited before Start")
	}
	return ps.cur.Wait(th)
}

// PersistentRecv is the receive-side persistent request (MPI_Recv_init).
type PersistentRecv struct {
	comm *Comm
	src  int
	tag  int32
	buf  []byte
	cur  *Request
}

// RecvInit creates a persistent receive (not yet started).
func (c *Comm) RecvInit(src int, tag int32, buf []byte) (*PersistentRecv, error) {
	if err := c.checkSource(src, tag); err != nil {
		return nil, err
	}
	return &PersistentRecv{comm: c, src: src, tag: tag, buf: buf}, nil
}

// Start posts one incarnation.
func (pr *PersistentRecv) Start(th *Thread) error {
	if pr.cur != nil && !pr.cur.Done() {
		return fmt.Errorf("core: persistent recv started while active")
	}
	req, err := pr.comm.Irecv(th, pr.src, pr.tag, pr.buf)
	if err != nil {
		return err
	}
	pr.cur = req
	return nil
}

// Wait completes the current incarnation and returns its status.
func (pr *PersistentRecv) Wait(th *Thread) (Status, error) {
	if pr.cur == nil {
		return Status{}, fmt.Errorf("core: persistent recv waited before Start")
	}
	err := pr.cur.Wait(th)
	return pr.cur.Status(), err
}

// Split collectively partitions the communicator by color, ordering each
// new group by key then by current rank (MPI_Comm_split). colors and keys
// are indexed by current communicator rank; a negative color leaves that
// rank out (MPI_UNDEFINED). The result maps each member rank of the
// original communicator to its handle in its new communicator (nil for
// undefined colors). Like Dup, this is the shared-address-space collective:
// one call performs the operation for every member.
func (c *Comm) Split(colors, keys []int) ([]*Comm, error) {
	n := len(c.group)
	if len(colors) != n || len(keys) != n {
		return nil, fmt.Errorf("core: Split needs %d colors and keys, got %d/%d", n, len(colors), len(keys))
	}
	// Group ranks by color.
	byColor := map[int][]int{} // color -> member comm-ranks
	for r, col := range colors {
		if col < 0 {
			continue
		}
		byColor[col] = append(byColor[col], r)
	}
	out := make([]*Comm, n)
	// Deterministic iteration: sort colors.
	cols := make([]int, 0, len(byColor))
	for col := range byColor {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		members := byColor[col]
		sort.SliceStable(members, func(i, j int) bool {
			return keys[members[i]] < keys[members[j]]
		})
		worldRanks := make([]int, len(members))
		for i, r := range members {
			worldRanks[i] = c.group[r]
		}
		comms, err := c.proc.world.NewCommWithInfo(worldRanks, c.info)
		if err != nil {
			return nil, err
		}
		for i, r := range members {
			out[r] = comms[i]
		}
	}
	return out, nil
}
