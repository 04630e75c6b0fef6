package lib

import "testing"

func TestLib(t *testing.T) {
	if TestOnly()+Used(Config{Unset: 2}) == 0 {
		t.Fatal("zero")
	}
}
