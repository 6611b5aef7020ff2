//! A small JSON reader for the inputs the benchmark reads back: the
//! daemon's status lines, `BENCHMARK.json`, and run logs. (The toolkit's
//! `sixscope::json` only writes JSON.)

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(pairs) => pairs,
            _ => &[],
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.ws();
                    let Value::Str(key) = self.value()? else {
                        return self.err("expected a string key");
                    };
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected ':'");
                    }
                    pairs.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let start = self.i;
                    while self.s.get(self.i).is_some_and(|&b| b != b'"' && b != b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                    match self.s.get(self.i) {
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = self.s.get(self.i + 1).copied();
                            self.i += 2;
                            match esc {
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(b'r') => out.push('\r'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = self
                                        .s
                                        .get(self.i..self.i + 4)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                                    let Some(c) = hex.and_then(char::from_u32) else {
                                        return self.err("bad \\u escape");
                                    };
                                    out.push(c);
                                    self.i += 4;
                                }
                                Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                                _ => return self.err("bad escape"),
                            }
                        }
                        _ => return self.err("unterminated string"),
                    }
                }
            }
            Some(_) => {
                if self.eat("true") {
                    return Ok(Value::Bool(true));
                }
                if self.eat("false") {
                    return Ok(Value::Bool(false));
                }
                if self.eat("null") {
                    return Ok(Value::Null);
                }
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|n| n.parse::<f64>().ok())
                    .map(Value::Num)
                    .map_or_else(|| self.err("bad value"), Ok)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines_and_nested_documents() {
        let v = parse(r#"{"event":"snapshot","packets":20000,"ok":true,"w":null}"#).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("snapshot"));
        assert_eq!(v.get("packets").and_then(Value::as_f64), Some(20000.0));
        let v = parse(r#" {"a": [1, -2.5e1, {"b": "x\"yA"}], "c": {}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array()[1], Value::Num(-25.0));
        assert_eq!(
            v.get("a").unwrap().as_array()[2].get("b"),
            Some(&Value::Str("x\"yA".into()))
        );
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1] 2").is_err());
    }
}
