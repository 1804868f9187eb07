package protocols

import (
	"encoding/binary"
	"strings"

	"deepflow/internal/trace"
)

// MySQLCodec implements the MySQL client/server packet framing (paper
// reference [106]): a 3-byte little-endian length, a sequence byte, then
// the command or response payload. Pipeline protocol.
type MySQLCodec struct{}

// Proto implements Codec.
func (MySQLCodec) Proto() trace.L7Proto { return trace.L7MySQL }

// MySQL command bytes the codec understands.
const (
	mysqlComQuery       = 0x03
	mysqlComStmtPrepare = 0x16
	mysqlComStmtExecute = 0x17
	mysqlComQuit        = 0x01
	mysqlComPing        = 0x0E
	mysqlOKByte         = 0x00
	mysqlERRByte        = 0xFF
	mysqlEOFByte        = 0xFE
)

// Traits implements TraitedCodec. The 3-byte little-endian length can put
// any value in the first byte, so MySQL is probed on every first byte.
func (MySQLCodec) Traits() Traits {
	return Traits{MinLen: 5}
}

// Infer implements Codec.
func (MySQLCodec) Infer(payload []byte) bool {
	if len(payload) < 5 {
		return false
	}
	plen := int(payload[0]) | int(payload[1])<<8 | int(payload[2])<<16
	if plen == 0 || plen+4 != len(payload) {
		return false
	}
	seq := payload[3]
	first := payload[4]
	if seq == 0 {
		switch first {
		case mysqlComQuery, mysqlComStmtPrepare, mysqlComStmtExecute, mysqlComQuit, mysqlComPing:
			return true
		}
		return false
	}
	return first == mysqlOKByte || first == mysqlERRByte || first == mysqlEOFByte
}

// Parse implements Codec.
func (MySQLCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 5 {
		return Message{}, ErrShort
	}
	plen := int(payload[0]) | int(payload[1])<<8 | int(payload[2])<<16
	seq := payload[3]
	body := payload[4:]
	msg := Message{Proto: trace.L7MySQL, TotalLen: plen + 4}
	if seq == 0 {
		msg.Type = trace.MsgRequest
		switch body[0] {
		case mysqlComQuery:
			msg.Method = "COM_QUERY"
			sql := string(body[1:])
			msg.Resource = firstSQLWords(sql)
		case mysqlComStmtPrepare:
			msg.Method = "COM_STMT_PREPARE"
			msg.Resource = firstSQLWords(string(body[1:]))
		case mysqlComStmtExecute:
			msg.Method = "COM_STMT_EXECUTE"
		case mysqlComPing:
			msg.Method = "COM_PING"
		case mysqlComQuit:
			msg.Method = "COM_QUIT"
		default:
			return Message{}, errMalformed(trace.L7MySQL, "unknown command")
		}
		return msg, nil
	}
	msg.Type = trace.MsgResponse
	switch body[0] {
	case mysqlOKByte, mysqlEOFByte:
		msg.Status = "ok"
	case mysqlERRByte:
		msg.Status = "error"
		if len(body) >= 3 {
			msg.Code = int32(binary.LittleEndian.Uint16(body[1:]))
		}
	default:
		// Result set header: treat as OK data.
		msg.Status = "ok"
	}
	return msg, nil
}

// firstSQLWords returns a short normalized fragment of the statement.
func firstSQLWords(sql string) string {
	sql = strings.TrimSpace(sql)
	words := strings.Fields(sql)
	if len(words) > 4 {
		words = words[:4]
	}
	return strings.Join(words, " ")
}

// EncodeMySQLQuery builds a COM_QUERY packet (sequence 0).
func EncodeMySQLQuery(sql string) []byte {
	body := append([]byte{mysqlComQuery}, sql...)
	return encodeMySQLPacket(0, body)
}

// EncodeMySQLOK builds an OK response (sequence 1) with padding rows bytes.
func EncodeMySQLOK(padding int) []byte {
	body := append([]byte{mysqlOKByte}, make([]byte, 4+padding)...)
	return encodeMySQLPacket(1, body)
}

// EncodeMySQLErr builds an ERR response with the given error code.
func EncodeMySQLErr(code uint16) []byte {
	body := make([]byte, 3)
	body[0] = mysqlERRByte
	binary.LittleEndian.PutUint16(body[1:], code)
	return encodeMySQLPacket(1, body)
}

func encodeMySQLPacket(seq byte, body []byte) []byte {
	out := make([]byte, 4+len(body))
	out[0] = byte(len(body))
	out[1] = byte(len(body) >> 8)
	out[2] = byte(len(body) >> 16)
	out[3] = seq
	copy(out[4:], body)
	return out
}
