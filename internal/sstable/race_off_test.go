//go:build !race

package sstable

const raceEnabled = false
