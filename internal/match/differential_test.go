package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// The differential test drives one seeded op stream through the matching
// engines and requires them to be indistinguishable from outside: same
// (recv, packet) pairings, same completion order, same probe answers, same
// final queue depths, same values of the counters the engines are contracted
// to agree on. The stream is generated without looking at any engine, so a
// divergence is an engine bug, never a generator artifact. The stream names
// exact coordinates only — what a communicator asserting no wildcards
// carries — so it runs through the list engine and the sharded engine alike.

type diffOpKind uint8

const (
	diffPost diffOpKind = iota
	diffDeliver
	diffProbe
	diffMProbe
	diffCancel
)

type diffOp struct {
	kind     diffOpKind
	src, tag int32  // post / probe / mprobe coordinates
	bufLen   int    // post
	recv     int    // post: id of the new receive; cancel: id to cancel
	seq      uint32 // deliver
	msg      int    // deliver: message id (a duplicate reuses the original's)
	payload  []byte // deliver
}

const (
	diffSources = 3
	diffTags    = 4
	diffWindow  = 6 // reordering depth per source
)

// diffSeqBase is each source's first sequence number: one stream starts at
// zero, one a few messages before the uint32 wrap, one well clear of both.
var diffSeqBase = [diffSources]uint32{0, math.MaxUint32 - 5, 1 << 20}

// genDiffOps builds the op stream for one seed. Deliveries are drawn from a
// per-source window of sent-but-undelivered messages: the head (in order),
// a random window slot (reordered), or a message already handed over once
// (duplicate — stale if it was in order, a second buffered copy otherwise).
func genDiffOps(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	type sent struct {
		seq     uint32
		tag     int32
		msg     int
		payload []byte
	}
	var (
		ops     []diffOp
		window  [diffSources][]sent
		history [diffSources][]sent
		nextSeq = diffSeqBase
		nRecv   int
		nMsg    int
	)
	coords := func() (int32, int32) {
		return int32(rng.Intn(diffSources)), int32(rng.Intn(diffTags))
	}
	deliver := func(s int32, m sent) {
		ops = append(ops, diffOp{kind: diffDeliver, src: s, tag: m.tag, seq: m.seq, msg: m.msg, payload: m.payload})
	}
	for len(ops) < n {
		switch k := rng.Intn(20); {
		case k < 7:
			src, tag := coords()
			ops = append(ops, diffOp{kind: diffPost, src: src, tag: tag, bufLen: rng.Intn(4), recv: nRecv})
			nRecv++
		case k < 15:
			s := int32(rng.Intn(diffSources))
			for len(window[s]) < diffWindow {
				payload := make([]byte, rng.Intn(4))
				rng.Read(payload)
				window[s] = append(window[s], sent{seq: nextSeq[s], tag: int32(rng.Intn(diffTags)), msg: nMsg, payload: payload})
				nextSeq[s]++
				nMsg++
			}
			switch d := rng.Intn(10); {
			case d < 2 && len(history[s]) > 0:
				deliver(s, history[s][rng.Intn(len(history[s]))])
			default:
				i := 0
				if d < 6 {
					i = rng.Intn(diffWindow)
				}
				m := window[s][i]
				window[s] = append(window[s][:i], window[s][i+1:]...)
				history[s] = append(history[s], m)
				deliver(s, m)
			}
		case k < 17:
			src, tag := coords()
			ops = append(ops, diffOp{kind: diffProbe, src: src, tag: tag})
		case k < 18:
			src, tag := coords()
			ops = append(ops, diffOp{kind: diffMProbe, src: src, tag: tag})
		default:
			if nRecv > 0 {
				ops = append(ops, diffOp{kind: diffCancel, recv: rng.Intn(nRecv)})
			}
		}
	}
	// Flush: hand over every still-windowed message in order, so buffered
	// out-of-sequence packets drain and the final depths are about matching
	// state, not about where the stream happened to stop.
	for s := range window {
		for _, m := range window[s] {
			deliver(int32(s), m)
		}
	}
	return ops
}

// diffResult is everything one engine let the outside see.
type diffResult struct {
	log      []string
	perSrc   [diffSources][]int // completion order of message ids, per source
	depths   [3]int
	counters [5]int64
}

var diffCounters = [5]spc.Counter{
	spc.MessagesReceived, spc.ExpectedMessages, spc.UnexpectedMessages,
	spc.OutOfSequence, spc.DuplicateSequences,
}

func runDiffOps(e Matcher, ops []diffOp) diffResult {
	var res diffResult
	recvs := map[int]*Recv{}
	msgOf := map[*transport.Packet]int{}
	complete := func(c Completion) string {
		msg := msgOf[c.Packet]
		res.perSrc[c.Recv.MatchedEnv.Src] = append(res.perSrc[c.Recv.MatchedEnv.Src], msg)
		return fmt.Sprintf("r%d<-m%d(seq=%d n=%d trunc=%v buf=%x)", c.Recv.Token.(int), msg,
			c.Recv.MatchedEnv.Seq, c.Recv.N, c.Recv.Truncated, c.Recv.Buf[:c.Recv.N])
	}
	var scratch []Completion
	for i, op := range ops {
		line := fmt.Sprintf("%d:", i)
		switch op.kind {
		case diffPost:
			r := &Recv{Source: op.src, Tag: op.tag, Buf: make([]byte, op.bufLen), Token: op.recv}
			recvs[op.recv] = r
			line += fmt.Sprintf("post r%d(%d,%d)", op.recv, op.src, op.tag)
			if c, ok := e.PostRecv(r); ok {
				line += " " + complete(c)
			}
		case diffDeliver:
			p := transport.NewPacket(transport.Envelope{
				Src: op.src, Tag: op.tag, Comm: 1, Seq: op.seq, Kind: transport.KindEager,
			}, op.payload, nil)
			msgOf[p] = op.msg
			line += fmt.Sprintf("deliver m%d(src=%d seq=%d)", op.msg, op.src, op.seq)
			scratch = e.Deliver(p, scratch[:0])
			for _, c := range scratch {
				line += " " + complete(c)
			}
		case diffProbe:
			env, ok := e.Probe(op.src, op.tag)
			line += fmt.Sprintf("probe(%d,%d) %v", op.src, op.tag, ok)
			if ok {
				line += fmt.Sprintf(" src=%d tag=%d seq=%d len=%d", env.Src, env.Tag, env.Seq, env.Len)
			}
		case diffMProbe:
			p, ok := e.MProbe(op.src, op.tag)
			line += fmt.Sprintf("mprobe(%d,%d) %v", op.src, op.tag, ok)
			if ok {
				line += fmt.Sprintf(" m%d", msgOf[p])
			}
		case diffCancel:
			line += fmt.Sprintf("cancel r%d %v", op.recv, e.CancelRecv(recvs[op.recv]))
		}
		res.log = append(res.log, line)
	}
	res.depths = [3]int{e.PostedLen(), e.UnexpectedLen(), e.OOSBuffered()}
	for i, c := range diffCounters {
		res.counters[i] = e.Counts().Get(c)
	}
	return res
}

func TestDifferentialEngines(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	costs := hw.Fast().Scaled()
	for seed := 1; seed <= seeds; seed++ {
		ops := genDiffOps(int64(seed), 400)
		for _, overtaking := range []bool{false, true} {
			sets := [2]*spc.Set{spc.NewSet(), spc.NewSet()}
			engines := [2]Matcher{
				NewEngine(1, diffSources, costs, NopMeter{}, sets[0]),
				NewSharded(1, diffSources, 4, costs, NopMeter{}, sets[1]),
			}
			var results [2]diffResult
			for i, e := range engines {
				for s, base := range diffSeqBase {
					e.(interface{ SeedNextSeq(int32, uint32) }).SeedNextSeq(int32(s), base)
				}
				e.SetAllowOvertaking(overtaking)
				results[i] = runDiffOps(e, ops)
			}
			ref, got := results[0], results[1]
			if !overtaking && ref.counters[3] == 0 {
				t.Fatalf("seed %d: the stream never arrived out of sequence; the generator lost its teeth", seed)
			}
			at := fmt.Sprintf("seed %d overtaking=%v", seed, overtaking)
			for j := range ref.log {
				if got.log[j] != ref.log[j] {
					t.Fatalf("%s: sharded diverges from list at op\n  list: %s\n  sharded: %s", at, ref.log[j], got.log[j])
				}
			}
			if fmt.Sprint(got.perSrc) != fmt.Sprint(ref.perSrc) {
				t.Fatalf("%s: sharded per-source completion order %v, list %v", at, got.perSrc, ref.perSrc)
			}
			if got.depths != ref.depths {
				t.Fatalf("%s: sharded final posted/unexpected/oos depths %v, list %v", at, got.depths, ref.depths)
			}
			if got.counters != ref.counters {
				t.Fatalf("%s: sharded counters %v, list %v (received, expected, unexpected, oos, duplicates)",
					at, got.counters, ref.counters)
			}
		}
	}
}
