package query

// Schema declares the sensor relation's attributes and whether each is
// static (fixed at deployment or updated rarely by base-station flooding)
// or dynamic (a fresh reading every sampling cycle). Appendix B: the
// pre-defined sensor schema has 28 attributes, 18 populated with physical
// or soft readings and the rest assignable from the base station.
type Schema struct {
	static map[string]bool // attr -> is static; presence means the attr exists
}

// NewSchema builds a schema from explicit attribute lists.
func NewSchema(staticAttrs, dynamicAttrs []string) *Schema {
	s := &Schema{static: make(map[string]bool, len(staticAttrs)+len(dynamicAttrs))}
	for _, a := range staticAttrs {
		s.static[a] = true
	}
	for _, a := range dynamicAttrs {
		s.static[a] = false
	}
	return s
}

// DefaultSchema returns the paper's 28-attribute sensor schema: the Table 1
// attributes plus the physical and soft readings of Appendix B.
func DefaultSchema() *Schema {
	return NewSchema(
		// Static: identifiers and base-station-assigned attributes.
		[]string{
			"id", "x", "y", "cid", "rid", "posx", "posy",
			"role", "room", "floor", "group", "caps",
		},
		// Dynamic: physical sensor measurements and soft readings.
		[]string{
			"u", "v", "temperature", "light", "humidity", "voltage",
			"battery", "rfid", "adc0", "adc1", "adc2", "accel_x",
			"accel_y", "mem_free", "local_time", "queue_len",
		},
	)
}

// Has reports whether attr exists.
func (s *Schema) Has(attr string) bool {
	_, ok := s.static[attr]
	return ok
}

// IsStatic reports whether attr is static. Unknown attributes are treated
// as dynamic, forcing the safe (unrouted) evaluation path.
func (s *Schema) IsStatic(attr string) bool { return s.static[attr] }

// NumAttrs returns the schema width.
func (s *Schema) NumAttrs() int { return len(s.static) }
