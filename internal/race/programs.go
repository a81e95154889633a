package race

import (
	"cilkgo/internal/cilklock"
	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

// Program is one named instrumented program: the paper's two bugs, their
// fixes and the reducer walk. Racy is the verdict Check must reach on any
// input of a few dozen elements or more: a race is exposed iff Racy (§4).
type Program struct {
	Name string
	Racy bool
	Run  func(c *sched.Context, d *Detector, n int, seed int64) // input of size n from seed
}

// Programs is the table `cilk screen -program` runs.
var Programs = []Program{
	{"qsort-buggy", true, func(c *sched.Context, d *Detector, n int, seed int64) {
		qsortInstrumented(c, d, workloads.RandomFloats(n, seed), 0, n, true)
	}},
	{"qsort-ok", false, func(c *sched.Context, d *Detector, n int, seed int64) {
		qsortInstrumented(c, d, workloads.RandomFloats(n, seed), 0, n, false)
	}},
	{"treewalk-racy", true, func(c *sched.Context, d *Detector, n int, seed int64) {
		walkInstrumented(c, d, workloads.BuildTree(n, seed), nil, false)
	}},
	{"treewalk-mutex", false, func(c *sched.Context, d *Detector, n int, seed int64) {
		walkInstrumented(c, d, workloads.BuildTree(n, seed), cilklock.New("output_list_lock"), false)
	}},
	{"treewalk-reducer", false, func(c *sched.Context, d *Detector, n int, seed int64) {
		walkInstrumented(c, d, workloads.BuildTree(n, seed), nil, true)
	}},
}

// qsortInstrumented mirrors Fig. 1's quicksort over an index range,
// reporting every element access to the detector. With overlap=true it
// reproduces §4's bug: qsort(max(begin+1, middle-1), end) overlaps the two
// spawned subproblems by one element.
func qsortInstrumented(c *sched.Context, d *Detector, data []float64, lo, hi int, overlap bool) {
	if hi-lo < 2 {
		return
	}
	pivot := data[lo]
	mid := lo
	for i := lo; i < hi; i++ {
		d.Read(Index("a", i), "partition: read")
		if data[i] < pivot {
			data[i], data[mid] = data[mid], data[i]
			mid++
		}
		d.Write(Index("a", i), "partition: write")
	}
	if mid == lo {
		mid = lo + 1
	}
	left, right := mid, max(lo+1, mid)
	if overlap {
		right = max(lo+1, mid-1)
	}
	c.Spawn(func(c *sched.Context) { qsortInstrumented(c, d, data, lo, left, overlap) })
	qsortInstrumented(c, d, data, right, hi, overlap)
	c.Sync()
}

// walkInstrumented is the Fig. 5/6 tree walk with the output list as one
// shared location; mu != nil adds the Fig. 6 locking protocol. With
// private, every strand appends to its own reducer view instead, one
// location per strand (keyed by the node it visits): nothing can race (§5).
func walkInstrumented(c *sched.Context, d *Detector, x *workloads.TreeNode, mu *cilklock.Mutex, private bool) {
	if x == nil {
		return
	}
	if workloads.HasProperty(x, 3, 0) {
		var list Location = "output_list"
		if private {
			list = Index("view", int(x.Value))
		}
		if mu != nil {
			mu.Lock()
		}
		d.Read(list, "walk: read list tail")
		d.Write(list, "walk: output_list.push_back(x)")
		if mu != nil {
			mu.Unlock()
		}
	}
	c.Spawn(func(c *sched.Context) { walkInstrumented(c, d, x.Left, mu, private) })
	walkInstrumented(c, d, x.Right, mu, private)
	c.Sync()
}
