package sql

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// A large INSERT spends nearly all of its parse converting vector
// elements, and each vector literal converts on its own. A deferral
// takes that conversion off the parse: the serial pass records each
// literal's '[' and the first ']' after it and skips to that ']',
// while GOMAXPROCS workers convert the recorded literals with the
// serial path's own element loop (Lexer.vectorElems) from the moment
// the first is queued. The skip trusts the first ']' to close the
// literal; a worker that stops anywhere else (a "--" comment holding
// ']', a list never closed, a malformed element) fails the deferral,
// and Parse parses the statement again serially.
type deferral struct {
	src   string
	jobs  []*vecJob // queued, in source order
	queue chan *vecJob

	failed atomic.Bool
	wg     sync.WaitGroup
}

// deferQueue bounds the literals queued ahead of the workers. The pass
// skips a literal far faster than a worker converts one, so it runs
// ahead; at the bound it blocks, which costs nothing while the workers
// hold every P, and 256 keeps each of them many literals deep.
const deferQueue = 256

// vecJob is one skipped vector literal: where its value goes, where it
// lies, and what a worker converted.
type vecJob struct {
	row, col  int
	open, end int // src offsets of its '[' and of the ']' the pass skipped to
	vec       []float32
}

// errDeferred stops a deferred pass that cannot go on; Parse then
// parses serially, so the error is never seen.
var errDeferred = errors.New("sql: deferred vector conversion failed")

// parseDeferred parses src with its INSERT vectors converted by
// workers. ok is false when the result cannot be vouched for: the pass
// or a conversion failed, or a literal did not end at the ']' the pass
// skipped to. Every outcome the caller keeps is the serial parser's:
// each literal was converted by the serial element loop over the same
// bytes, and the pass went on from the token the serial parse would
// reach after it.
func parseDeferred(src string) (Statement, bool) {
	d := &deferral{src: src}
	st, err := parse(src, d)
	if !d.wait() || err != nil {
		return nil, false
	}
	for _, j := range d.jobs {
		st.(*Insert).Rows[j.row][j.col] = j.vec
	}
	return st, true
}

// deferVector skips the vector literal at the current '[' — the value
// of column col of row row — queues it for the workers, and advances
// to the token after its ']'.
func (p *Parser) deferVector(row, col int) error {
	d, open := p.def, p.tok.Pos
	n := strings.IndexByte(d.src[open+1:], ']')
	if n < 0 || d.failed.Load() {
		return errDeferred
	}
	end := open + 1 + n
	d.add(&vecJob{row: row, col: col, open: open, end: end})
	p.lex.pos = end + 1
	return p.advance()
}

// add queues one literal, starting the workers with the first.
func (d *deferral) add(j *vecJob) {
	if d.queue == nil {
		d.queue = make(chan *vecJob, deferQueue)
		workers := runtime.GOMAXPROCS(0)
		d.wg.Add(workers)
		for range workers {
			go d.work()
		}
	}
	d.jobs = append(d.jobs, j)
	d.queue <- j
}

// work converts queued literals until the queue closes, and fails the
// deferral on the first that does not convert to its recorded ']'.
func (d *deferral) work() {
	defer d.wg.Done()
	for j := range d.queue {
		if d.failed.Load() {
			continue // drain: the statement is parsed again serially
		}
		l := Lexer{src: d.src, pos: j.open + 1}
		vec, err := l.vectorElems(j.open)
		if err != nil || l.pos != j.end {
			d.failed.Store(true)
			continue
		}
		j.vec = vec
	}
}

// wait closes the queue, waits for the workers and reports whether
// every queued literal converted.
func (d *deferral) wait() bool {
	if d.queue != nil {
		close(d.queue)
		d.wg.Wait()
	}
	return !d.failed.Load()
}
