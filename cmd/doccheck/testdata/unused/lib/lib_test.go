package lib

import "testing"

func TestHooks(t *testing.T) {
	if NewLive().Count() != 1 || TestOnly() != 1 {
		t.Fatal("fixture broken")
	}
}
