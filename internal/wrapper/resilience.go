package wrapper

import (
	"fmt"
	"math/rand"
	"sort"

	"tpspace/internal/rmi"
	"tpspace/internal/sim"
)

// This file makes the client side of the Figure 4 stack survive a
// faulty hop: per-attempt response deadlines, capped exponential
// backoff, and retransmission of the SAME request bytes under the SAME
// id. At-most-once execution is the server's job — the request
// executor keeps a per-connection dedup table (binDedup, backend.go),
// so a retransmit either parks on the in-flight original or is
// answered from the completed-response cache. Together the two ends
// turn a lossy transport into an exactly-once operation stream, which
// is what the chaos harness's "no acknowledged write lost" invariant
// leans on.

// Resilience configures retransmission for a wrapper Client. The zero
// Deadline disables per-attempt timeouts: requests stranded by a
// disconnect then stay pending until an explicit Resend call (wire
// FaultConn.OnRestore to Client.Resend) or Close.
type Resilience struct {
	Timer    rmi.Timer    // scheduler for deadlines and backoff (required)
	Attempts int          // total attempts per request (default 1)
	Deadline sim.Duration // per-attempt response budget, on top of the op's own blocking timeout
	Backoff  rmi.Backoff  // delay between attempts
	Rand     *rand.Rand   // jitter source; use the kernel RNG in simulation
}

func (r *Resilience) attempts() int {
	if r.Attempts <= 0 {
		return 1
	}
	return r.Attempts
}

// SetResilience enables (or, with nil, disables) retransmission.
// Configure before issuing requests; in-flight requests keep the
// policy they started with.
func (c *Client) SetResilience(r *Resilience) {
	if r != nil && r.Timer == nil {
		panic("wrapper: Resilience requires a Timer")
	}
	c.res.Store(r)
}

// attempt transmits (or retransmits) a pending request. It is a no-op
// if the request has already completed. All of its registered-as-pr
// checks serialize on the request's pending-table stripe — the same
// exactly-once discipline the old client-wide lock provided.
func (c *Client) attempt(id uint64, pr *pendingReq) {
	if !c.pend.bumpAttempt(id, pr) {
		return
	}
	res := c.res.Load()

	err := c.transmit(pr.bytes)
	if res == nil {
		// Plain client: a synchronous send failure fails the call.
		if err != nil && c.pend.removeIf(id, pr) {
			pr.release()
			pr.fail(id, err.Error())
		}
		return
	}

	s := c.pend.stripe(id)
	s.mu.Lock()
	if s.m[id] != pr {
		s.mu.Unlock()
		return // response raced the send path
	}
	if err != nil {
		if pr.budget == 0 {
			// No deadline configured: park until an explicit Resend
			// (e.g. from a transport-restore hook) replays it.
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		c.retry(id, pr, err.Error())
		return
	}
	if pr.budget > 0 {
		pr.cancel = res.Timer(pr.budget, func() {
			c.retry(id, pr, "deadline exceeded")
		})
	}
	s.mu.Unlock()
}

// retry schedules the next attempt after backoff, or fails the call
// once the attempt budget is spent.
func (c *Client) retry(id uint64, pr *pendingReq, cause string) {
	res := c.res.Load()
	s := c.pend.stripe(id)
	s.mu.Lock()
	if s.m[id] != pr {
		s.mu.Unlock()
		return
	}
	if pr.attempt >= res.attempts() {
		delete(s.m, id)
		s.mu.Unlock()
		pr.release()
		pr.fail(id, fmt.Sprintf("wrapper: %s after %d attempts", cause, pr.attempt))
		return
	}
	pr.cancel = res.Timer(res.Backoff.Delay(pr.attempt, res.Rand), func() {
		c.attempt(id, pr)
	})
	s.mu.Unlock()
}

// Resend retransmits every in-flight request immediately, in request-id
// order, without consuming an attempt. Hook it to the transport's
// restore notification (e.g. FaultConn.OnRestore) so requests stranded
// by a disconnect are replayed as soon as the link returns rather than
// waiting out their deadlines.
func (c *Client) Resend() {
	reqs := c.pend.snapshot(nil)
	// Id order, not stripe-map order: retransmission order must be a
	// pure function of the run, per the determinism rules.
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].id < reqs[j].id })
	for _, r := range reqs {
		_ = c.conn.Send(r.pr.bytes)
	}
}

// dedupCacheCap bounds the completed-response cache of the
// executor's at-most-once table (binDedup). A client retains at most
// Attempts×(in-flight ops) resendable ids, so this is generous.
const dedupCacheCap = 4096
