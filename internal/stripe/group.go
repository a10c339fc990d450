package stripe

import (
	"errors"

	"danas/internal/nas"
	"danas/internal/sim"
)

// Group is one shard's replica set behind a single nas.Client face:
// copy 0 is the shard's primary, the rest are its replicas (placed by
// Layout.Rack). It embeds the shard's ReplicaSet, which owns serving
// copy, dead marks, ack policy and failover; Group adds the per-copy
// sessions and handles. Reads and namespace lookups go to the serving
// copy; writes reach every live copy with the ack policy deciding how
// many acknowledgements complete them; commits run on every live copy
// so each session resolves its own verifier.
//
// Used as the per-shard sub-clients of the striped Client, a Group
// turns S shards × (R+1) copies into the flat S-wide fleet the striping
// layer already understands: replication is invisible above it.
type Group struct {
	*ReplicaSet
	subs []nas.Client

	// handles maps an open name to its per-copy handles (same idiom as
	// the striped Client: identical creation order means the copies
	// usually agree on handles, but the bookkeeping never assumes it).
	handles map[string][]*nas.Handle
}

var _ nas.Client = (*Group)(nil)

// NewGroup builds the replica set from its copy sessions (copy 0 =
// primary, already retry-armed by the caller — a session that cannot
// time out can never trigger failover).
func NewGroup(policy AckPolicy, subs []nas.Client) *Group {
	if len(subs) == 0 {
		panic("stripe: replica group needs at least one copy")
	}
	return &Group{
		ReplicaSet: NewReplicaSet(policy, len(subs), func(copy int) nas.FailoverSession {
			fs, _ := subs[copy].(nas.FailoverSession)
			return fs
		}),
		subs:    subs,
		handles: make(map[string][]*nas.Handle),
	}
}

// Name implements nas.Client.
func (g *Group) Name() string { return g.subs[0].Name() }

// copyHandle resolves the per-copy handle for h, falling back to h
// itself (correct when the copies assigned identical handles, which a
// replicated namespace with identical creation order guarantees).
func (g *Group) copyHandle(h *nas.Handle, copy int) *nas.Handle {
	if h == nil {
		return nil
	}
	if hs, ok := g.handles[h.Name]; ok && copy < len(hs) && hs[copy] != nil {
		return hs[copy]
	}
	return h
}

// Open implements nas.Client: the name resolves on every live copy so
// each session holds its own handle (failover targets included).
func (g *Group) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	return g.nameOp(p, name, "grp-open", func(wp *sim.Proc, copy int) (*nas.Handle, error) {
		return g.subs[copy].Open(wp, name)
	})
}

// Create implements nas.Client: the name is created on every live copy
// (the namespace, like the data, is replicated).
func (g *Group) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return g.nameOp(p, name, "grp-create", func(wp *sim.Proc, copy int) (*nas.Handle, error) {
		return g.subs[copy].Create(wp, name)
	})
}

// nameOp runs a handle-returning namespace operation on every live
// copy, failing over if the serving copy times out; the serving copy's
// handle is canonical. Replica-copy timeouts mark the copy dead rather
// than failing the operation.
func (g *Group) nameOp(p *sim.Proc, name, label string,
	fn func(wp *sim.Proc, copy int) (*nas.Handle, error)) (*nas.Handle, error) {
	for {
		serving := g.Serving()
		hs := make([]*nas.Handle, len(g.subs))
		err := g.FanOut(p, label, func(wp *sim.Proc, copy int) error {
			h, err := fn(wp, copy)
			hs[copy] = h
			return err
		})
		if err != nil {
			if errors.Is(err, nas.ErrTimeout) && g.Failover(p, serving) {
				continue
			}
			return nil, err
		}
		g.handles[name] = hs
		return hs[g.Serving()], nil
	}
}

// Getattr implements nas.Client (serving copy, with failover).
func (g *Group) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	var size int64
	err := g.Do(p, func(wp *sim.Proc, copy int) error {
		var err error
		size, err = g.subs[copy].Getattr(wp, g.copyHandle(h, copy))
		return err
	})
	return size, err
}

// Read implements nas.Client (serving copy, with failover): reads need
// only one copy, and keeping them on one session preserves that
// session's cache and transport state.
func (g *Group) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	var got int64
	err := g.Do(p, func(wp *sim.Proc, copy int) error {
		var err error
		got, err = g.subs[copy].Read(wp, g.copyHandle(h, copy), off, n, bufID)
		return err
	})
	return got, err
}

// Write implements nas.Client: the write reaches every live copy, the
// ack policy decides how many acknowledgements complete it.
func (g *Group) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return g.Replicate(p, "grp-write", func(wp *sim.Proc, copy int) (int64, error) {
		return g.subs[copy].Write(wp, g.copyHandle(h, copy), off, n, bufID)
	})
}

// WriteData implements nas.Client, replicating like Write.
func (g *Group) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	return g.Replicate(p, "grp-wdata", func(wp *sim.Proc, copy int) (int64, error) {
		return g.subs[copy].WriteData(wp, g.copyHandle(h, copy), off, data)
	})
}

// Commit implements nas.Client: every live copy commits — each session
// resolves its own verifier and re-issues its own lost ranges — with
// the same ack requirement as writes, the serving copy authoritative.
func (g *Group) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	_, err := g.Replicate(p, "grp-commit", func(wp *sim.Proc, copy int) (int64, error) {
		return 0, g.subs[copy].Commit(wp, g.copyHandle(h, copy), off, n)
	})
	return err
}

// Remove implements nas.Client: the name is removed from every live
// copy; replica-copy failures are absorbed like write failures.
func (g *Group) Remove(p *sim.Proc, name string) error {
	delete(g.handles, name)
	_, err := g.Replicate(p, "grp-remove", func(wp *sim.Proc, copy int) (int64, error) {
		return 0, g.subs[copy].Remove(wp, name)
	})
	return err
}

// Close implements nas.Client: every live copy's handle is released.
func (g *Group) Close(p *sim.Proc, h *nas.Handle) error {
	hs := g.handles[h.Name]
	delete(g.handles, h.Name)
	return g.FanOut(p, "grp-close", func(wp *sim.Proc, copy int) error {
		ch := h
		if hs != nil && copy < len(hs) && hs[copy] != nil {
			ch = hs[copy]
		}
		return g.subs[copy].Close(wp, ch)
	})
}
