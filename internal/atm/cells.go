package atm

// Cell counts for the ATM adaptation layers. The GIA-200's i960 performs
// segmentation and reassembly on the card; the model charges its per-packet
// cost and computes wire occupancy from the exact cell counts.

// AAL5Cells reports the number of 53-byte cells an n-byte PDU occupies:
// payload plus the 8-byte trailer, padded up to a whole number of 48-byte
// cell payloads.
func AAL5Cells(n int) int {
	return (n + AAL5Trailer + AAL5CellPayload - 1) / AAL5CellPayload
}

// AAL5WireBytes reports wire occupancy of an n-byte PDU in bytes.
func AAL5WireBytes(n int) int { return AAL5Cells(n) * CellBytes }

// AAL34Cells reports the cell count for an n-byte AAL3/4 PDU: each cell
// carries 44 payload bytes (4 bytes of per-cell SAR header inside the
// 48-byte payload field), and the CPCS adds an 8-byte envelope.
func AAL34Cells(n int) int {
	return (n + 8 + AAL34CellPayload - 1) / AAL34CellPayload
}

// AAL34WireBytes reports wire occupancy of an n-byte AAL3/4 PDU.
func AAL34WireBytes(n int) int { return AAL34Cells(n) * CellBytes }
