package protocols

import (
	"encoding/binary"
	"strings"

	"deepflow/internal/trace"
)

// PostgresCodec implements the PostgreSQL simple-query sub-protocol
// (frontend/backend protocol 3.0): tagged messages with a big-endian
// length that includes itself but not the tag byte. Queries are answered
// in order — pipeline protocol, like MySQL.
//
// Messages understood:
//
//	'Q' (frontend) simple query: length, SQL text, NUL terminator
//	'C' (backend)  CommandComplete: length, command tag, NUL — OK response
//	'E' (backend)  ErrorResponse: length, fields ('C' SQLSTATE, 'M'
//	               message; each NUL-terminated), NUL terminator
type PostgresCodec struct{}

// Proto implements Codec.
func (PostgresCodec) Proto() trace.L7Proto { return trace.L7Postgres }

// Traits implements TraitedCodec.
func (PostgresCodec) Traits() Traits {
	return Traits{FirstBytes: []byte{'Q', 'C', 'E'}, MinLen: 6}
}

// Infer implements Codec: known tag and an exact self-describing length.
func (PostgresCodec) Infer(payload []byte) bool {
	if len(payload) < 6 {
		return false
	}
	switch payload[0] {
	case 'Q', 'C', 'E':
	default:
		return false
	}
	plen := int(binary.BigEndian.Uint32(payload[1:]))
	return plen >= 4 && plen+1 == len(payload) && payload[len(payload)-1] == 0
}

// Parse implements Codec.
func (PostgresCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 6 {
		return Message{}, ErrShort
	}
	plen := int(binary.BigEndian.Uint32(payload[1:]))
	msg := Message{Proto: trace.L7Postgres, TotalLen: plen + 1}
	body := payload[5:]
	switch payload[0] {
	case 'Q':
		msg.Type = trace.MsgRequest
		sql := string(cutAtNUL(body))
		msg.Method = firstSQLWord(sql)
		msg.Resource = firstSQLWords(sql)
	case 'C':
		msg.Type, msg.Status = trace.MsgResponse, "ok"
		// Command tag, e.g. "SELECT 3"; frames may pad past the NUL to
		// model row data already streamed on the wire.
		msg.Method = string(cutAtNUL(body))
	case 'E':
		msg.Type, msg.Status, msg.Code = trace.MsgResponse, "error", 1
		// Fields: type byte + NUL-terminated value, terminated by an
		// empty field. SQLSTATE ('C') becomes the resource.
		for len(body) > 1 {
			ft := body[0]
			rest := body[1:]
			i := 0
			for i < len(rest) && rest[i] != 0 {
				i++
			}
			if ft == 'C' {
				msg.Resource = string(rest[:i])
			}
			if i >= len(rest) {
				break
			}
			body = rest[i+1:]
		}
	default:
		return Message{}, errMalformed(trace.L7Postgres, "unknown tag")
	}
	return msg, nil
}

// cutAtNUL returns the prefix of b before its first NUL byte.
func cutAtNUL(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}

// firstSQLWord returns the statement's leading keyword, uppercased.
func firstSQLWord(sql string) string {
	fields := strings.Fields(sql)
	if len(fields) == 0 {
		return "QUERY"
	}
	return strings.ToUpper(fields[0])
}

// EncodePostgresQuery builds a simple-query ('Q') message.
func EncodePostgresQuery(sql string) []byte {
	out := make([]byte, 5+len(sql)+1)
	out[0] = 'Q'
	binary.BigEndian.PutUint32(out[1:], uint32(len(out)-1))
	copy(out[5:], sql)
	return out
}

// EncodePostgresComplete builds a CommandComplete ('C') response with the
// given command tag (e.g. "SELECT 3"); padding zero bytes model row data
// already streamed on the wire.
func EncodePostgresComplete(tag string, padding int) []byte {
	out := make([]byte, 5+len(tag)+1+padding)
	out[0] = 'C'
	binary.BigEndian.PutUint32(out[1:], uint32(len(out)-1))
	copy(out[5:], tag)
	return out
}

// EncodePostgresError builds an ErrorResponse ('E') with a SQLSTATE code
// and message.
func EncodePostgresError(sqlstate, message string) []byte {
	body := make([]byte, 0, 2+len(sqlstate)+2+len(message)+2)
	body = append(body, 'C')
	body = append(body, sqlstate...)
	body = append(body, 0)
	body = append(body, 'M')
	body = append(body, message...)
	body = append(body, 0)
	body = append(body, 0) // field-list terminator
	out := make([]byte, 5+len(body))
	out[0] = 'E'
	binary.BigEndian.PutUint32(out[1:], uint32(len(out)-1))
	copy(out[5:], body)
	return out
}
