package fsim

import (
	"container/list"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"danas/internal/sim"
)

// order lists the resident blocks' keys from most to least recently used,
// checking that the backward links and the block map agree with the
// forward walk.
func (c *ServerCache) order(tb testing.TB) []BlockKey {
	tb.Helper()
	var out []BlockKey
	var prev *CacheBlock
	for b := c.mru; b != nil; b = b.next {
		if b.prev != prev {
			tb.Fatalf("block %+v: broken prev link", b.Key)
		}
		if c.blocks[b.Key] != b {
			tb.Fatalf("block %+v: listed but not mapped", b.Key)
		}
		out = append(out, b.Key)
		prev = b
	}
	if c.lru != prev {
		tb.Fatal("lru end is not the last listed block")
	}
	if len(out) != len(c.blocks) {
		tb.Fatalf("list holds %d blocks, map %d", len(out), len(c.blocks))
	}
	return out
}

// refCache is the container/list LRU the intrusive list replaced, kept as
// the reference model: whole-block keys, dirty pins, and the hooks' order.
type refCache struct {
	capacity     int
	blockSize    int64
	ll           *list.List // front = most recently used; values *refBlock
	m            map[BlockKey]*list.Element
	hits, misses uint64
	evicted      []BlockKey
}

type refBlock struct {
	key   BlockKey
	dirty bool
}

func (r *refCache) key(f *File, off int64) BlockKey {
	return BlockKey{File: f.ID, Off: off - off%r.blockSize}
}

func (r *refCache) insert(k BlockKey) {
	r.m[k] = r.ll.PushFront(&refBlock{key: k})
	// The hunt never reaches the block being inserted: with every older
	// block dirty the cache over-commits instead.
	for e := r.ll.Back(); len(r.m) > r.capacity && e != r.ll.Front(); {
		b, newer := e.Value.(*refBlock), e.Prev()
		if !b.dirty {
			r.evict(e)
		}
		e = newer
	}
}

func (r *refCache) evict(e *list.Element) {
	b := e.Value.(*refBlock)
	r.ll.Remove(e)
	delete(r.m, b.key)
	r.evicted = append(r.evicted, b.key)
}

func (r *refCache) get(f *File, off int64) bool {
	k := r.key(f, off)
	if e, ok := r.m[k]; ok {
		r.hits++
		r.ll.MoveToFront(e)
		return true
	}
	r.misses++
	r.insert(k)
	return false
}

func (r *refCache) install(f *File, off, n int64) {
	for bo := off - off%r.blockSize; n > 0 && bo < min(off+n, f.Size()); bo += r.blockSize {
		if e, ok := r.m[r.key(f, bo)]; ok {
			r.ll.MoveToFront(e)
		} else {
			r.insert(r.key(f, bo))
		}
	}
}

func (r *refCache) setDirty(k BlockKey, dirty bool) {
	if e, ok := r.m[k]; ok {
		e.Value.(*refBlock).dirty = dirty
	}
}

func (r *refCache) evictFile(id FileID) {
	for e := r.ll.Back(); e != nil; {
		newer := e.Prev()
		if e.Value.(*refBlock).key.File == id {
			r.evict(e)
		}
		e = newer
	}
}

func (r *refCache) order() []BlockKey {
	var out []BlockKey
	for e := r.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*refBlock).key)
	}
	return out
}

func (r *refCache) dirtyLen() int {
	n := 0
	for e := r.ll.Front(); e != nil; e = e.Next() {
		if e.Value.(*refBlock).dirty {
			n++
		}
	}
	return n
}

// TestServerCacheMatchesReferenceLRU drives the cache and the reference
// model with random Get/Install/MarkDirty/MarkClean/EvictFile sequences
// over two small files (one with a partial tail block) and a capacity
// small enough that evictions, dirty pins and over-capacity growth all
// occur. After every operation it compares hit/miss answers and counters,
// the OnEvict sequence, resident and dirty counts, and the full LRU order.
func TestServerCacheMatchesReferenceLRU(t *testing.T) {
	const bs = 1024
	prop := func(capSeed uint8, ops []uint16) bool {
		s := sim.New()
		defer s.Close()
		fs := NewFS()
		c := NewServerCache(fs, NewDisk(s, "disk", sim.Micros(10), 1e9), bs, 1+int(capSeed%8))
		ref := &refCache{capacity: c.capacity, blockSize: bs, ll: list.New(), m: make(map[BlockKey]*list.Element)}
		var evicted []BlockKey
		c.OnEvict = func(b *CacheBlock) { evicted = append(evicted, b.Key) }
		a, _ := fs.Create("a", 12*bs)
		b, _ := fs.Create("b", 9*bs+100)
		files := []*File{a, b}
		ok := true
		s.Go("ops", func(p *sim.Proc) {
			for i, op := range ops {
				f := files[op>>3&1]
				off := int64(op>>4%12)*bs + int64(op>>8%4)*100
				if off >= f.Size() {
					off = f.Size() - 1
				}
				switch op % 8 {
				case 0, 1, 2:
					_, hit := c.Get(p, f, off)
					if want := ref.get(f, off); hit != want {
						t.Logf("op %d Get(%d,%d): hit=%v, reference %v", i, f.ID, off, hit, want)
						ok = false
					}
				case 3, 4:
					n := int64(op>>10%3) * bs
					c.Install(f, off, n)
					ref.install(f, off, n)
				case 5:
					c.MarkDirty(f, off)
					ref.setDirty(ref.key(f, off), true)
				case 6:
					c.MarkClean(ref.key(f, off))
					ref.setDirty(ref.key(f, off), false)
				case 7:
					c.EvictFile(f.ID)
					ref.evictFile(f.ID)
				}
				switch {
				case c.Hits != ref.hits || c.Misses != ref.misses:
					t.Logf("op %d: hits/misses %d/%d, reference %d/%d", i, c.Hits, c.Misses, ref.hits, ref.misses)
				case !slices.Equal(evicted, ref.evicted):
					t.Logf("op %d: evicted %v, reference %v", i, evicted, ref.evicted)
				case c.DirtyLen() != ref.dirtyLen():
					t.Logf("op %d: %d dirty, reference %d", i, c.DirtyLen(), ref.dirtyLen())
				case !slices.Equal(c.order(t), ref.order()):
					t.Logf("op %d: LRU order %v, reference %v", i, c.order(t), ref.order())
				default:
					continue
				}
				ok = false
				return
			}
		})
		s.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestServerCacheAllocs pins the cache's per-operation allocations: a Get
// hit allocates nothing, and an insert that evicts once the cache is at
// capacity allocates only the new CacheBlock.
func TestServerCacheAllocs(t *testing.T) {
	const bs, capacity = 4096, 64
	_, fs, c := newCacheRig(t, bs, capacity)
	f, _ := fs.Create("a", 1<<30)
	for off := int64(0); off < 4*capacity*bs; off += bs {
		c.Install(f, off, bs)
	}
	next := int64(4 * capacity * bs)
	if n := testing.AllocsPerRun(1000, func() {
		c.Install(f, next, bs)
		next += bs
	}); n != 1 {
		t.Errorf("evicting insert: %v allocs, want 1", n)
	}
	if c.Len() != capacity {
		t.Fatalf("resident %d, want %d", c.Len(), capacity)
	}
	// A hit never reaches the disk, so it needs no process.
	if n := testing.AllocsPerRun(1000, func() {
		if _, hit := c.Get(nil, f, next-bs); !hit {
			t.Fatal("resident block missed")
		}
	}); n != 0 {
		t.Errorf("Get hit: %v allocs, want 0", n)
	}
}

// TestInsertNeverEvictsItself is the regression for the victim hunt
// reaching the block being inserted: with every older block dirty, the
// new block must stay resident (the cache over-commits) and no eviction
// hook may run, so an ODAFS server never exports a non-resident block.
func TestInsertNeverEvictsItself(t *testing.T) {
	_, fs, c := newCacheRig(t, 4096, 1)
	f, _ := fs.Create("a", 2*4096)
	var log []string
	c.OnInsert = func(b *CacheBlock) { log = append(log, fmt.Sprintf("insert %d", b.Key.Off/4096)) }
	c.OnEvict = func(b *CacheBlock) { log = append(log, fmt.Sprintf("evict %d", b.Key.Off/4096)) }
	c.Install(f, 0, 4096)
	c.MarkDirty(f, 0)
	c.Install(f, 4096, 4096)
	if want := []string{"insert 0", "insert 1"}; !slices.Equal(log, want) {
		t.Errorf("hook log %v, want %v", log, want)
	}
	if _, ok := c.Peek(f, 4096); !ok {
		t.Error("block 1 not resident after its own insert")
	}
	if c.Len() != 2 || c.DirtyLen() != 1 {
		t.Errorf("resident %d (dirty %d), want 2 (1): the dirty block is pinned and the cache over-commits", c.Len(), c.DirtyLen())
	}
}
