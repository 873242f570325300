package sqlparse

// ParseFresh is Parse without the token pool: it lexes into a nil buffer
// and parses with a fresh parser. Tests hold Parse to its answers.
func ParseFresh(src string) (Statement, error) {
	toks, err := lex(src, nil, false)
	if err != nil {
		return nil, err
	}
	stmt, _, err := parseTokens(toks, src, false)
	return stmt, err
}
