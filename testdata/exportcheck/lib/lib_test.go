package lib

import "testing"

func TestOnlyOwnTests(t *testing.T) {
	if OnlyOwnTests() != 1 {
		t.Fatal("OnlyOwnTests")
	}
}
