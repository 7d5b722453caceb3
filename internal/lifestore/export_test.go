package lifestore

// The file-layout internals the external tests corrupt and reseal.
const (
	HeaderFixedLen  = headerFixedLen
	SectionEntryLen = sectionEntryLen
)

var Checksum = checksum
