package sql

import (
	"fmt"
	"strings"
)

// Lex tokenizes a SQL string.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if _, ok := keywords[upper]; ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case isDigit(c):
			// digits[.digits][(e|E)[+-]digits]; a fraction or an
			// exponent makes a float.
			start, kind := i, TokInt
			i = skipDigits(input, i)
			if i+1 < n && input[i] == '.' && isDigit(input[i+1]) {
				kind, i = TokFloat, skipDigits(input, i+1)
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && isDigit(input[j]) {
					kind, i = TokFloat, skipDigits(input, j)
				}
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<>", "!=", "<=", ">=", "||":
				toks = append(toks, Token{Kind: TokOp, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';', '%':
				toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", input[i:i+1], i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// Identifiers are ASCII: a byte outside [A-Za-z0-9_] ends one, so
// every identifier is valid UTF-8 and case-folds byte for byte.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}
