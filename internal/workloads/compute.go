package workloads

import (
	"sync/atomic"

	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
)

// Fib computes Fibonacci numbers the canonical Cilk way: spawn fib(n-1),
// compute fib(n-2) in the continuation, sync, add.
func Fib(c *sched.Context, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	var a int64
	c.Spawn(func(c *sched.Context) { a = Fib(c, n-1) })
	b := Fib(c, n-2)
	c.Sync()
	return a + b
}

// SerialFib is Fib's serial elision.
func SerialFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return SerialFib(n-1) + SerialFib(n-2)
}

// Matrix is a dense row-major n×n matrix.
type Matrix struct {
	N    int
	Elts []float64
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) *Matrix { return &Matrix{N: n, Elts: make([]float64, n*n)} }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Elts[i*m.N+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Elts[i*m.N+j] = v }

// MatMul computes out = a×b with a cilk_for over output rows — the §2.3
// "matrix multiplication of 1000×1000 matrices is highly parallel"
// workload. The inner two loops run serially with k-major order for cache
// friendliness.
func MatMul(c *sched.Context, a, b, out *Matrix) {
	n := a.N
	pfor.For(c, 0, n, func(_ *sched.Context, i int) {
		row := out.Elts[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a.Elts[i*n+k]
			if aik == 0 {
				continue
			}
			brow := b.Elts[k*n : (k+1)*n]
			for j := range row {
				row[j] += aik * brow[j]
			}
		}
	})
}

// SerialMatMul is the serial baseline with the identical loop order.
func SerialMatMul(a, b, out *Matrix) {
	n := a.N
	for i := 0; i < n; i++ {
		row := out.Elts[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a.Elts[i*n+k]
			if aik == 0 {
				continue
			}
			brow := b.Elts[k*n : (k+1)*n]
			for j := range row {
				row[j] += aik * brow[j]
			}
		}
	}
}

// NQueens counts the placements of n non-attacking queens with a spawn per
// safe column and an opadd reducer accumulating solutions — a classic Cilk
// demonstration mixing irregular recursion with a hyperobject.
func NQueens(c *sched.Context, n int) int64 {
	count := hyper.NewAdder[int64]()
	var place func(c *sched.Context, row int, cols, d1, d2 uint64)
	place = func(c *sched.Context, row int, cols, d1, d2 uint64) {
		if row == n {
			count.Add(c, 1)
			return
		}
		for col := 0; col < n; col++ {
			cb := uint64(1) << col
			db1 := uint64(1) << (row + col)
			db2 := uint64(1) << (row - col + n - 1)
			if cols&cb != 0 || d1&db1 != 0 || d2&db2 != 0 {
				continue
			}
			c.Spawn(func(c *sched.Context) {
				place(c, row+1, cols|cb, d1|db1, d2|db2)
			})
		}
		c.Sync()
	}
	place(c, 0, 0, 0, 0)
	c.Sync()
	// After the sync every descendant view has folded into this strand's
	// view, so the count is readable mid-computation (Reducer.Value is only
	// for after Ticket.Wait returns).
	return *count.View(c)
}

// Graph is an adjacency-list graph with int32 vertices.
type Graph struct {
	Adj [][]int32
}

// RandomGraph builds a connected pseudo-random graph with v vertices and
// roughly deg edges per vertex, deterministic in seed.
func RandomGraph(v int, deg int, seed uint64) *Graph {
	g := &Graph{Adj: make([][]int32, v)}
	state := seed
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	// A random spanning path keeps the graph connected.
	for i := 1; i < v; i++ {
		j := next(i)
		g.Adj[i] = append(g.Adj[i], int32(j))
		g.Adj[j] = append(g.Adj[j], int32(i))
	}
	for i := 0; i < v; i++ {
		for e := 1; e < deg; e++ {
			j := next(v)
			if j == i {
				continue
			}
			g.Adj[i] = append(g.Adj[i], int32(j))
			g.Adj[j] = append(g.Adj[j], int32(i))
		}
	}
	return g
}

// BFS runs a level-synchronous parallel breadth-first search from src and
// returns the distance of every vertex (-1 if unreachable). Each level
// relaxes its frontier with a cilk_for; newly discovered vertices are
// claimed with an atomic compare-and-swap and collected into the next
// frontier by a reducer_list_append, so the traversal is lock-free and the
// frontier order is deterministic.
func BFS(c *sched.Context, g *Graph, src int32) []int32 {
	dist := make([]int32, len(g.Adj))
	atomicDist := make([]atomic.Int32, len(g.Adj))
	for i := range atomicDist {
		atomicDist[i].Store(-1)
	}
	atomicDist[src].Store(0)
	frontier := []int32{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		next := hyper.NewListAppend[int32]()
		fr := frontier
		pfor.For(c, 0, len(fr), func(c *sched.Context, i int) {
			for _, w := range g.Adj[fr[i]] {
				if atomicDist[w].CompareAndSwap(-1, depth) {
					next.PushBack(c, w)
				}
			}
		})
		// pfor.For has synced, so the folded frontier is in this strand's
		// view of the reducer.
		frontier = *next.View(c)
	}
	for i := range dist {
		dist[i] = atomicDist[i].Load()
	}
	return dist
}

// SerialBFS is the queue-based serial baseline.
func SerialBFS(g *Graph, src int32) []int32 {
	dist := make([]int32, len(g.Adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
