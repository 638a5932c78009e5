package check

// Verdict is what a Search visitor decides for a state.
type Verdict uint8

const (
	Expand Verdict = iota // queue the state's unseen successors
	Prune                 // count the state, leave it unexpanded
	Stop                  // end the search, reporting the path to the state
)

// Result reports a Search.
type Result[M any] struct {
	Stopped   bool // a visit returned Stop; Path leads from the root to that state
	Path      []M
	States    int  // distinct states visited
	Truncated bool // the budget ran out with states still queued
}

// searchNode is a discovered state; s is released once it is visited.
type searchNode[S, M any] struct {
	s      S
	move   M
	parent *searchNode[S, M]
	depth  int
}

// Search explores the states reachable from root breadth first, each once.
// key appends a state's canonical bytes to a buffer and must tell apart any
// two states that can behave differently; next yields each successor with
// the move that reaches it; visit is shown every distinct state once, with
// its depth. At most maxStates states are visited (0 selects 1 << 20).
func Search[S, M any](root S, maxStates int, key func(S, []byte) []byte, next func(S, func(M, S)),
	visit func(S, int) Verdict) (res Result[M]) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	buf := key(root, nil)
	seen := map[string]bool{string(buf): true}
	queue := []*searchNode[S, M]{{s: root}}
	for len(queue) > 0 && res.States < maxStates {
		cur := queue[0]
		queue[0], queue = nil, queue[1:]
		res.States++
		switch visit(cur.s, cur.depth) {
		case Stop:
			for n := cur; n.parent != nil; n = n.parent {
				res.Path = append([]M{n.move}, res.Path...)
			}
			res.Stopped = true
			return res
		case Expand:
			next(cur.s, func(m M, s S) {
				buf = key(s, buf[:0])
				if !seen[string(buf)] {
					seen[string(buf)] = true
					queue = append(queue, &searchNode[S, M]{s: s, move: m, parent: cur, depth: cur.depth + 1})
				}
			})
		}
		cur.s = *new(S)
	}
	res.Truncated = len(queue) > 0
	return res
}
