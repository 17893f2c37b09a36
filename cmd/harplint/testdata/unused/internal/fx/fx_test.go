package fx

import "testing"

func TestOnlyTests(t *testing.T) { OnlyTests() }
