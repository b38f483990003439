// Fixture for the hotalloc analyzer: only //ufc:hotpath functions are
// checked; the same constructs on cold paths pass.
package hotalloc

import (
	"fmt"

	"allocdep"
)

func consume(v interface{}) { _ = v }

//ufc:hotpath
func hotSprintf(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt.Sprintf allocates a string on every call`
}

// coldSprintf is identical but unannotated: cold paths may format freely.
func coldSprintf(n int) string {
	return fmt.Sprintf("n=%d", n)
}

//ufc:hotpath
func hotConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//ufc:hotpath
func hotConstConcat() string {
	return "wire" + "-codec" // constant concatenation folds at compile time
}

//ufc:hotpath
func hotAppendFresh(scratch, more []float64) []float64 {
	grown := append(scratch, more...) // want `append result does not feed back into the appended slice`
	return grown
}

//ufc:hotpath
func hotSelfAppend(scratch []float64, v float64) []float64 {
	scratch = append(scratch, v) // self-append reuses caller-owned capacity
	return scratch
}

//ufc:hotpath
func hotReturnAppend(b []byte, v byte) []byte {
	return append(b, v) // append-style API: the caller feeds the result back
}

//ufc:hotpath
func hotCallsAppendAPI(b []byte, n int) []byte {
	b = appendDigits(b, n) // clean callee: return-append exports no fact
	return b
}

// appendDigits is an unannotated append-style helper, the shape of
// binary.AppendUvarint; it must not export an allocates fact.
func appendDigits(b []byte, n int) []byte {
	for n > 9 {
		b = append(b, byte('0'+n%10))
		n /= 10
	}
	return append(b, byte('0'+n))
}

//ufc:hotpath
func hotEscapingClosure(xs []float64, run func(func())) {
	total := 0.0
	run(func() { // want `closure captures variables and escapes`
		for _, x := range xs {
			total += x
		}
	})
	_ = total
}

//ufc:hotpath
func hotLocalClosure(c, l []float64, s float64) float64 {
	// A local probe closure: captured, but bound to a local that is only
	// ever called directly — stack-allocated, not boxed.
	eval := func(t float64) float64 {
		sum := 0.0
		for i := range c {
			sum += c[i] + s*t*l[i]
		}
		return sum
	}
	return eval(0.5) + eval(1.5)
}

//ufc:hotpath
func hotBoxing(x float64) {
	consume(x) // want `boxes the value on the heap`
}

//ufc:hotpath
func hotPointerArg(p *float64) {
	consume(p) // pointer-shaped values fit in the interface word
}

//ufc:hotpath
func hotErrorPath(n int) error {
	if n < 0 {
		return fmt.Errorf("bad n %d", n) // fmt/errors boxing is error-path only
	}
	return nil
}

//ufc:hotpath
func hotMapLit() int {
	weights := map[string]int{"coal": 1} // want `map literal allocates`
	return weights["coal"]
}

//ufc:hotpath
func hotSliceLit() int {
	xs := []int{1, 2, 3} // want `slice literal allocates a fresh backing array`
	return xs[0]
}

//ufc:hotpath
func hotCallsCold(n int) int {
	s := coldSprintf(n) // want `call to coldSprintf, which allocates \(fmt\.Sprintf allocates a string on every call\)`
	return len(s)
}

//ufc:hotpath
func hotCallsDep() int {
	s := allocdep.Format(3) // want `call to Format, which allocates`
	return len(s)
}

//ufc:hotpath
func hotCallsDepJustified(n int) int {
	if n < 0 {
		return len(allocdep.Format(n)) //ufc:alloc fixture: cold error branch
	}
	return n
}

//ufc:hotpath
func hotCallsDepClean(n int) int {
	return allocdep.Half(n) // allocation-free callee: no fact, no finding
}

//ufc:hotpath
func hotCallsDepAppendAPI(b []byte) []byte {
	b = allocdep.AppendByte(b, 7) // cross-package append-style API: no fact
	return b
}
