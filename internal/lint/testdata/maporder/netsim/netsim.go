// Package netsim is a simlint fixture (outside cmd/, so the maporder
// analyzer checks it like every other package): side-effecting
// map ranges it must flag, order-independent ones it must not, and
// the //simlint:allow escape hatch in both valid and invalid forms.
package netsim

func observe(string) {}

// badCall: calling into other code per iteration leaks map order into
// event ordering.
func badCall(m map[string]int) {
	for k := range m {
		observe(k)
	}
}

// badAppend: the outer slice records iteration order.
func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// badSend: channel sends publish iteration order.
func badSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k
	}
}

// badDelete: delete mutates the map mid-iteration.
func badDelete(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// goodReduce: a commutative reduction with only pure builtins cannot
// observe order.
func goodReduce(m map[string][]byte) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}

// goodSlice: ranging a slice is always ordered; calls are fine.
func goodSlice(s []string) {
	for _, v := range s {
		observe(v)
	}
}

// goodLocalAppend: the collected slice dies inside the loop body.
func goodLocalAppend(m map[string][][]byte) int {
	n := 0
	for _, chunks := range m {
		joined := []byte{}
		for _, c := range chunks {
			joined = append(joined, c...)
		}
		n += len(joined)
	}
	return n
}

// allowedTrailing: suppressed by a trailing annotation.
func allowedTrailing(m map[string]int) []string {
	var keys []string
	for k := range m { //simlint:allow maporder(fixture: collect-then-sort)
		keys = append(keys, k)
	}
	return keys
}

// allowedAbove: suppressed by an annotation on the previous line.
func allowedAbove(m map[string]int) []string {
	var keys []string
	//simlint:allow maporder(fixture: collect-then-sort)
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// emptyReason: a reason-less annotation is itself a finding and does
// not suppress the map-range diagnostic.
func emptyReason(m map[string]int) []string {
	var keys []string
	for k := range m { //simlint:allow maporder()
		keys = append(keys, k)
	}
	return keys
}
