package protocols

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"deepflow/internal/trace"
)

// RedisCodec implements the RESP wire protocol (paper reference [114]).
// RESP is a pipeline protocol: responses arrive in request order.
type RedisCodec struct{}

// Proto implements Codec.
func (RedisCodec) Proto() trace.L7Proto { return trace.L7Redis }

// Traits implements TraitedCodec.
func (RedisCodec) Traits() Traits {
	return Traits{FirstBytes: []byte{'*', '+', '-', ':', '$'}, MinLen: 4}
}

// Infer implements Codec.
func (RedisCodec) Infer(payload []byte) bool {
	if len(payload) < 4 {
		return false
	}
	switch payload[0] {
	case '*', '+', '-', ':', '$':
	default:
		return false
	}
	return bytes.Contains(payload[:min(len(payload), 16)], []byte("\r\n"))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Parse implements Codec.
func (RedisCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 4 {
		return Message{}, ErrShort
	}
	msg := Message{Proto: trace.L7Redis, TotalLen: len(payload)}
	switch payload[0] {
	case '*': // array => command (request)
		parts := splitRESP(payload)
		if len(parts) == 0 {
			return Message{}, errMalformed(trace.L7Redis, "empty command array")
		}
		msg.Type = trace.MsgRequest
		msg.Method = strings.ToUpper(parts[0])
		if len(parts) > 1 {
			msg.Resource = parts[1]
		}
	case '+': // simple string
		msg.Type = trace.MsgResponse
		msg.Status = "ok"
	case ':': // integer
		msg.Type = trace.MsgResponse
		msg.Status = "ok"
	case '$': // bulk string
		msg.Type = trace.MsgResponse
		msg.Status = "ok"
		if bytes.HasPrefix(payload, []byte("$-1")) {
			msg.Code = -1 // nil reply
		}
	case '-': // error
		msg.Type = trace.MsgResponse
		msg.Status = "error"
		msg.Code = 1
		line, _, _ := bytes.Cut(payload[1:], []byte("\r\n"))
		msg.Resource = string(line)
	default:
		return Message{}, errMalformed(trace.L7Redis, "bad type byte")
	}
	return msg, nil
}

// splitRESP extracts bulk strings from a RESP array payload.
func splitRESP(payload []byte) []string {
	lines := bytes.Split(payload, []byte("\r\n"))
	var out []string
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) > 0 && lines[i][0] == '$' && i+1 < len(lines) {
			out = append(out, string(lines[i+1]))
			i++
		}
	}
	return out
}

// EncodeRedisCommand builds a RESP command array, e.g. ("GET", "user:1").
func EncodeRedisCommand(args ...string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.Bytes()
}

// EncodeRedisReply builds a bulk-string reply of the given byte size, or an
// error reply when errMsg is non-empty.
func EncodeRedisReply(size int, errMsg string) []byte {
	if errMsg != "" {
		return []byte("-ERR " + errMsg + "\r\n")
	}
	body := strings.Repeat("x", size)
	return []byte("$" + strconv.Itoa(size) + "\r\n" + body + "\r\n")
}
