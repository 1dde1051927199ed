//! A minimal hand-rolled Rust lexer — just enough structure for the lint
//! rules: identifiers, punctuation, literals and comments, each tagged with
//! its line and column.
//!
//! This is deliberately **not** a full Rust parser (the workspace builds
//! offline, so `syn` is not available).  The rules only need to see token
//! *sequences* (`pub` `fn` `name`, a string literal's content) with strings
//! and comments correctly told apart, so the lexer's one hard job is to
//! never mistake literal or comment content for code.  It therefore handles the
//! full literal syntax: escapes, multi-line strings, raw strings with any
//! number of `#`s, byte/C-string prefixes, char-vs-lifetime after `'`, and
//! nested block comments.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unsafe`, `HashMap`, `now`).
    Ident,
    /// A single punctuation character (`:`, `[`, `.`); multi-character
    /// operators appear as consecutive tokens.
    Punct,
    /// A string literal; [`Token::text`] holds the *content* (no quotes),
    /// raw and escaped forms undecoded.
    Str,
    /// A character or byte literal (content, no quotes).
    Char,
    /// A numeric literal.
    Num,
    /// A lifetime (`'a`, `'static`), without the leading `'`.
    Lifetime,
}

/// One code token (comments are collected separately in [`LexFile`]).
#[derive(Debug, Clone)]
pub struct Token {
    /// The token kind.
    pub kind: TokKind,
    /// The token text (see [`TokKind`] for what it holds per kind).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// One comment, with the comment markers stripped.
#[derive(Debug, Clone)]
pub struct Comment {
    /// The comment text without `//`, `///`, `//!` or `/* */` delimiters.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based line where the comment ends (block comments may span lines).
    pub end_line: u32,
    /// 1-based column of the comment's opening delimiter.
    pub col: u32,
}

/// The lexed form of one source file: code tokens and comments, in order.
#[derive(Debug, Default)]
pub struct LexFile {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    out: LexFile,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consume one character, tracking line/column.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn line_comment(&mut self) {
        let (line, col) = (self.line, self.col);
        self.bump();
        self.bump();
        // Doc-comment markers (`///`, `//!`) are delimiter, not text.
        while matches!(self.peek(0), Some('/' | '!')) {
            self.bump();
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            line,
            end_line: line,
            col,
        });
    }

    fn block_comment(&mut self) {
        let (line, col) = (self.line, self.col);
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                    text.push_str("/*");
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            line,
            end_line: self.line,
            col,
        });
    }

    /// Lex a `"…"` string body (opening quote not yet consumed); escapes
    /// are kept verbatim in the content, and the string may span lines.
    fn quoted_string(&mut self, line: u32, col: u32) {
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                continue;
            }
            if c == '"' {
                self.bump();
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Str, text, line, col);
    }

    /// Lex a raw string at `#…"` (prefix `r`/`br`/`cr` already consumed).
    fn raw_string(&mut self, line: u32, col: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            // `r#ident` raw identifier: re-lex as an identifier.
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                self.bump();
            }
            self.push(TokKind::Ident, text, line, col);
            return;
        }
        self.bump();
        let mut text = String::new();
        'scan: while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break 'scan;
                }
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Str, text, line, col);
    }

    /// Lex what follows a `'`: a char literal or a lifetime.
    fn char_or_lifetime(&mut self) {
        let (line, col) = (self.line, self.col);
        self.bump();
        match (self.peek(0), self.peek(1)) {
            (Some('\\'), _) => {
                // Escaped char literal: consume to the closing quote.
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '\'' {
                        self.bump();
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokKind::Char, text, line, col);
            }
            (Some(c), Some('\'')) => {
                self.bump();
                self.bump();
                self.push(TokKind::Char, c.to_string(), line, col);
            }
            _ => {
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokKind::Lifetime, text, line, col);
            }
        }
    }

    fn number(&mut self) {
        let (line, col) = (self.line, self.col);
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `0..10` does not.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line, col);
    }

    fn ident(&mut self) {
        let (line, col) = (self.line, self.col);
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        // Literal prefixes: `r"…"`, `b"…"`, `br#"…"#`, `c"…"`, `b'x'`.
        match text.as_str() {
            "r" | "br" | "cr" if matches!(self.peek(0), Some('"' | '#')) => {
                self.raw_string(line, col);
                return;
            }
            "b" | "c" if self.peek(0) == Some('"') => {
                self.quoted_string(line, col);
                return;
            }
            "b" if self.peek(0) == Some('\'') => {
                self.char_or_lifetime();
                return;
            }
            _ => {}
        }
        self.push(TokKind::Ident, text, line, col);
    }
}

/// Lex `src` into tokens and comments.
pub fn tokenize(src: &str) -> LexFile {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        out: LexFile::default(),
    };
    while let Some(c) = lx.peek(0) {
        match c {
            '/' if lx.peek(1) == Some('/') => lx.line_comment(),
            '/' if lx.peek(1) == Some('*') => lx.block_comment(),
            '"' => {
                let (line, col) = (lx.line, lx.col);
                lx.quoted_string(line, col);
            }
            '\'' => lx.char_or_lifetime(),
            _ if c.is_whitespace() => {
                lx.bump();
            }
            _ if c.is_ascii_digit() => lx.number(),
            _ if is_ident_start(c) => lx.ident(),
            _ => {
                let (line, col) = (lx.line, lx.col);
                lx.bump();
                lx.push(TokKind::Punct, c.to_string(), line, col);
            }
        }
    }
    lx.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn code_inside_strings_is_not_tokenized() {
        let lex = tokenize(r#"let s = "Instant::now() /* not a comment */";"#);
        assert_eq!(idents(r#"let s = "Instant::now()";"#), ["let", "s"]);
        assert_eq!(lex.comments.len(), 0);
        assert_eq!(
            lex.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hashes_do_not_end_early() {
        let lex = tokenize(r###"let s = r#"a "quoted" HashMap"#; let t = 1;"###);
        assert!(lex.tokens.iter().all(|t| !t.is_ident("HashMap")));
        assert!(lex.tokens.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lex = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lex
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lex
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "x"));
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let lex = tokenize("/* outer /* inner */ still outer */ fn f() {}");
        assert_eq!(lex.comments.len(), 1);
        assert!(lex.tokens.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn multiline_strings_track_lines() {
        let lex = tokenize("let s = \"line one\nline two\";\nlet x = 1;");
        let x = lex.tokens.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!(x.line, 3);
    }

    #[test]
    fn comments_strip_markers_and_record_spans() {
        let lex = tokenize("// SAFETY: fine\n/// doc\nfn f() {}\n/* a\nb */");
        assert_eq!(lex.comments[0].text, "SAFETY: fine");
        assert_eq!(lex.comments[1].text, "doc");
        assert_eq!(lex.comments[2].line, 4);
        assert_eq!(lex.comments[2].end_line, 5);
    }

    #[test]
    fn ranges_are_not_swallowed_by_number_lexing() {
        let lex = tokenize("for i in 0..10 { a[i]; }");
        assert!(lex
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "10"));
    }
}
