// Package lib holds one declaration per case the -unused pass decides.
package lib

import "fmt"

// Live is reached from main.
type Live struct{ n int }

// NewLive is called from main.
func NewLive() *Live { return &Live{n: len(registered)} }

// String is reached only through fmt.Stringer, which the pass must see.
func (l *Live) String() string { return fmt.Sprint(l.n) }

// Count is a test observation hook: only lib_test.go selects it.
func (l *Live) Count() int { return l.n }

var registered []string

// register runs from a package-level var initializer, so it is a root.
func register(name string) bool {
	registered = append(registered, name)
	return true
}

var _ = register("fixture")

// Unreferenced is named by nothing.
func Unreferenced() {}

// Orphan is named only by its own methods and by NewOrphan.
type Orphan struct{}

// NewOrphan is reached by nothing.
func NewOrphan() *Orphan { return &Orphan{} }

// String matches fmt.Stringer, but Orphan itself is never reached.
func (o *Orphan) String() string { return "orphan" }

// Close matches io.Closer, but Orphan itself is never reached.
func (o *Orphan) Close() error { return nil }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 }
