package protocols

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"deepflow/internal/trace"
)

// HTTPCodec implements HTTP/1.x, a pipeline text protocol and the main
// carrier of propagation headers (traceparent, B3, X-Request-ID).
type HTTPCodec struct{}

// Proto implements Codec.
func (HTTPCodec) Proto() trace.L7Proto { return trace.L7HTTP }

var httpMethods = []string{"GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"}

// Traits implements TraitedCodec. The first bytes are the method initials
// plus 'H' for the response status line.
func (HTTPCodec) Traits() Traits {
	return Traits{FirstBytes: []byte{'G', 'P', 'D', 'H', 'O'}, MinLen: 4}
}

// Infer implements Codec.
func (HTTPCodec) Infer(payload []byte) bool {
	if bytes.HasPrefix(payload, []byte("HTTP/1.")) {
		return true
	}
	for _, m := range httpMethods {
		if bytes.HasPrefix(payload, []byte(m+" ")) {
			return true
		}
	}
	return false
}

// Parse implements Codec.
func (HTTPCodec) Parse(payload []byte) (Message, error) {
	head := payload
	body := 0
	if i := bytes.Index(payload, []byte("\r\n\r\n")); i >= 0 {
		head = payload[:i]
		body = len(payload) - i - 4
	}
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 || lines[0] == "" {
		return Message{}, ErrShort
	}
	msg := Message{Proto: trace.L7HTTP, Headers: map[string]string{}}
	first := lines[0]

	declaredBody := -1
	for _, ln := range lines[1:] {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(k))
		val := strings.TrimSpace(v)
		msg.Headers[key] = val
		if key == "content-length" {
			if n, err := strconv.Atoi(val); err == nil {
				declaredBody = n
			}
		}
	}
	headLen := len(payload) - body
	if declaredBody >= 0 {
		msg.TotalLen = headLen + declaredBody
	} else {
		msg.TotalLen = len(payload)
	}

	if strings.HasPrefix(first, "HTTP/1.") {
		parts := strings.SplitN(first, " ", 3)
		if len(parts) < 2 {
			return Message{}, errMalformed(trace.L7HTTP, "bad status line")
		}
		code, err := strconv.Atoi(parts[1])
		if err != nil {
			return Message{}, errMalformed(trace.L7HTTP, "bad status code")
		}
		msg.Type = trace.MsgResponse
		msg.Code = int32(code)
		if code >= 400 {
			msg.Status = "error"
		} else {
			msg.Status = "ok"
		}
		return msg, nil
	}

	parts := strings.SplitN(first, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return Message{}, errMalformed(trace.L7HTTP, "bad request line")
	}
	msg.Type = trace.MsgRequest
	msg.Method = parts[0]
	msg.Resource = parts[1]
	return msg, nil
}

// EncodeHTTPRequest builds an HTTP/1.1 request. Headers are emitted in
// sorted order for determinism; bodyLen zero bytes follow the head.
func EncodeHTTPRequest(method, path string, headers map[string]string, bodyLen int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
	writeHeaders(&b, headers)
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", bodyLen)
	b.Write(make([]byte, bodyLen))
	return b.Bytes()
}

// EncodeHTTPResponse builds an HTTP/1.1 response.
func EncodeHTTPResponse(code int, headers map[string]string, bodyLen int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", code, httpStatusText(code))
	writeHeaders(&b, headers)
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", bodyLen)
	b.Write(make([]byte, bodyLen))
	return b.Bytes()
}

func writeHeaders(b *bytes.Buffer, headers map[string]string) {
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s: %s\r\n", k, headers[k])
	}
}

func httpStatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Status"
	}
}
