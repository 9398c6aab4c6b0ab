package mem

import (
	"fmt"
	"math"
)

// Store is the authoritative global memory, distributed across nodes:
// node i owns word addresses [i*WordsPerNode, (i+1)*WordsPerNode). The home
// of an address is fixed by that partition, as in Alewife (physical memory
// distributed among the processing nodes).
//
// The words live in fixed-size pages allocated on first write; a word on a
// page never written reads 0. A 64-node machine spans 32 MB of simulated
// memory and the workloads write a small part of it, so memory that is never
// written is never allocated or zeroed.
type Store struct {
	nodes    int
	wordsPer uint64
	homeSh   uint   // log2(wordsPer) when it is a power of two, else 0
	size     uint64 // nodes * wordsPer: the first address outside the store
	pages    []*page
	brk      []uint64 // per-node bump allocator offset
}

// A page is 512 words, 4 KB.
const (
	pageShift = 9
	pageWords = 1 << pageShift
)

type page [pageWords]uint64

// NewStore builds a store for n nodes with wordsPerNode words each.
func NewStore(n int, wordsPerNode uint64) *Store {
	size := uint64(n) * wordsPerNode
	s := &Store{
		nodes:    n,
		wordsPer: wordsPerNode,
		size:     size,
		pages:    make([]*page, (size+pageWords-1)>>pageShift),
		brk:      make([]uint64, n),
	}
	if wordsPerNode > 1 && wordsPerNode&(wordsPerNode-1) == 0 {
		// Every configured machine uses a power-of-two module size; Home is
		// on the request hot path, so turn its division into a shift.
		for w := wordsPerNode; w > 1; w >>= 1 {
			s.homeSh++
		}
	}
	return s
}

// Nodes returns the number of memory modules.
func (s *Store) Nodes() int { return s.nodes }

// WordsPerNode returns each node's memory size in words.
func (s *Store) WordsPerNode() uint64 { return s.wordsPer }

// Home returns the node whose memory holds a.
func (s *Store) Home(a Addr) int {
	var h int
	if s.homeSh != 0 {
		h = int(uint64(a) >> s.homeSh)
	} else {
		h = int(uint64(a) / s.wordsPer)
	}
	if h < 0 || h >= s.nodes {
		panic(outside(a))
	}
	return h
}

// Read returns the word at a; a word never written reads 0.
func (s *Store) Read(a Addr) uint64 {
	if uint64(a) >= s.size {
		panic(outside(a))
	}
	if p := s.pages[a>>pageShift]; p != nil {
		return p[a%pageWords]
	}
	return 0
}

// Write sets the word at a.
func (s *Store) Write(a Addr, v uint64) {
	if uint64(a) >= s.size {
		panic(outside(a))
	}
	p := s.pages[a>>pageShift]
	if p == nil { // first write to this page
		p = new(page)
		s.pages[a>>pageShift] = p
	}
	p[a%pageWords] = v
}

// outside is the panic value of an access beyond the store.
type outside Addr

func (o outside) Error() string {
	return fmt.Sprintf("mem: address %#x outside store", uint64(o))
}

// ReadF returns the word at a interpreted as a float64.
func (s *Store) ReadF(a Addr) float64 { return math.Float64frombits(s.Read(a)) }

// WriteF stores a float64 at a.
func (s *Store) WriteF(a Addr, v float64) { s.Write(a, math.Float64bits(v)) }

// AllocOn carves n words out of node's memory, line-aligned, and returns the
// base address. It panics when the node's memory is exhausted: simulated
// workloads size their data up front.
func (s *Store) AllocOn(node int, n uint64) Addr {
	if node < 0 || node >= s.nodes {
		panic(fmt.Sprintf("mem: AllocOn bad node %d", node))
	}
	// Line-align the allocation so distinct objects never share a line
	// (false sharing is introduced deliberately by tests, not by accident).
	b := (s.brk[node] + LineWords - 1) &^ (LineWords - 1)
	if b+n > s.wordsPer {
		panic(fmt.Sprintf("mem: node %d out of memory (%d + %d > %d words)",
			node, b, n, s.wordsPer))
	}
	s.brk[node] = b + n
	return Addr(uint64(node)*s.wordsPer + b)
}

// AllocStriped allocates n words on each of the given nodes and returns the
// per-node base addresses; convenient for block-distributed arrays.
func (s *Store) AllocStriped(nodes []int, n uint64) []Addr {
	out := make([]Addr, len(nodes))
	for i, nd := range nodes {
		out[i] = s.AllocOn(nd, n)
	}
	return out
}
