//! Recursive-descent parser producing the lightweight AST in
//! [`crate::ast`].
//!
//! Design constraints, in order:
//!
//! 1. **Total.** The parser must accept every file in the workspace —
//!    including code mid-edit — without panicking or looping. Anything
//!    it cannot structure becomes [`ExprKind::Opaque`] and the parser
//!    re-synchronizes at the next `;` or balanced `}`.
//! 2. **Shallow types.** Types are captured as flat text (with
//!    angle-bracket balancing), because the unit-flow pass only matches
//!    on type *names*.
//! 3. **Deep expressions.** A Pratt expression grammar with the Rust
//!    precedence table, postfix chains (`.method()`, `.field`, `?`,
//!    indexing, `as` casts), struct literals (suppressed in `if`/
//!    `while`/`match` heads, as in rustc), closures, and macro calls.
//!
//! Items other than functions are not modeled: the parser walks into
//! `mod`/`impl`/`trait` bodies looking for `fn`s and hoists every
//! function it finds into [`File::fns`].

use crate::ast::{Block, Expr, ExprKind, File, Fn, LitKind, Param, Span, Stmt};
use crate::lexer::{Token, TokenKind};

/// Parse one file's token stream.
#[must_use]
pub fn parse(tokens: &[Token]) -> File {
    let mut p = Parser { toks: tokens, pos: 0, out: File::default() };
    p.items(None);
    p.out
}

/// Keywords that start an item the parser either parses (`fn`) or
/// descends into / skips.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "mod", "impl", "trait", "struct", "enum", "union", "use", "const", "static", "type",
    "extern", "macro_rules", "pub", "unsafe", "async",
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: File,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + n)
    }

    fn peek_text(&self) -> &'a str {
        self.peek().map(|t| t.text.as_str()).unwrap_or("")
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.peek_text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skip a balanced group starting at the current `(`/`[`/`{`.
    fn skip_group(&mut self) {
        let (open, close) = match self.peek_text() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => {
                self.pos += 1;
                return;
            }
        };
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skip an attribute `#[...]` / `#![...]` if present.
    fn skip_attrs(&mut self) {
        while self.peek_text() == "#" {
            let save = self.pos;
            self.pos += 1;
            self.eat("!");
            if self.peek_text() == "[" {
                self.skip_group();
            } else {
                // A stray `#`; don't loop.
                self.pos = save + 1;
                return;
            }
        }
    }

    // ----- items ------------------------------------------------------

    /// Parse items until `end` (a closing brace position) or EOF.
    /// `end_text` is the token that terminates the item list (None = EOF).
    fn items(&mut self, end_text: Option<&str>) {
        while let Some(t) = self.peek() {
            if let Some(end) = end_text {
                if t.text == end {
                    return;
                }
            }
            let before = self.pos;
            self.item();
            if self.pos == before {
                // No progress — skip one token to stay total.
                self.pos += 1;
            }
        }
    }

    fn item(&mut self) {
        self.skip_attrs();
        // Visibility / qualifiers before the item keyword.
        loop {
            match self.peek_text() {
                "pub" => {
                    self.pos += 1;
                    if self.peek_text() == "(" {
                        self.skip_group();
                    }
                }
                "unsafe" | "async" | "default" => {
                    // Only a qualifier when an item keyword follows.
                    if matches!(
                        self.peek_at(1).map(|t| t.text.as_str()),
                        Some("fn") | Some("impl") | Some("trait") | Some("mod") | Some("extern")
                    ) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                "extern" if matches!(self.peek_at(1).map(|t| t.kind), Some(TokenKind::Str)) => {
                    // `extern "C" fn` qualifier or `extern "C" { ... }` block.
                    self.pos += 2;
                }
                "const" if self.peek_at(1).map(|t| t.text.as_str()) == Some("fn") => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        match self.peek_text() {
            "fn" => self.fn_item(),
            "mod" | "trait" => {
                // `mod name { items }` or `mod name;`
                self.pos += 1;
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        "{" => {
                            self.pos += 1;
                            self.items(Some("}"));
                            self.eat("}");
                            return;
                        }
                        ";" => {
                            self.pos += 1;
                            return;
                        }
                        _ => self.pos += 1,
                    }
                }
            }
            "impl" => {
                // `impl<...> Type (for Type)? { items }`
                self.pos += 1;
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        "{" => {
                            self.pos += 1;
                            self.items(Some("}"));
                            self.eat("}");
                            return;
                        }
                        ";" => {
                            self.pos += 1;
                            return;
                        }
                        "<" => self.skip_angles(),
                        _ => self.pos += 1,
                    }
                }
            }
            "struct" | "enum" | "union" | "use" | "const" | "static" | "type"
            | "macro_rules" | "extern" => {
                // Skip to the end of the item: `;` or a balanced `{...}`
                // (structs/enums), whichever comes first at depth 0.
                self.pos += 1;
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        ";" => {
                            self.pos += 1;
                            return;
                        }
                        "{" => {
                            self.skip_group();
                            return;
                        }
                        "<" => self.skip_angles(),
                        "=" => {
                            // const/static/type initializer: expression
                            // until `;` — skip groups so `;` inside
                            // braces can't end it early.
                            self.pos += 1;
                            while let Some(t) = self.peek() {
                                match t.text.as_str() {
                                    ";" => {
                                        self.pos += 1;
                                        return;
                                    }
                                    "(" | "[" | "{" => self.skip_group(),
                                    _ => self.pos += 1,
                                }
                            }
                            return;
                        }
                        _ => self.pos += 1,
                    }
                }
            }
            _ => {
                // Not an item start; consume one token.
                self.pos += 1;
            }
        }
    }

    /// Skip a `<...>` generic group with depth counting. Tolerates the
    /// shift operators the lexer may have fused (`>>`).
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "<" | "<<" => depth += if t.text == "<<" { 2 } else { 1 },
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" => {
                    self.pos -= 1;
                    self.skip_group();
                }
                ";" | "{" => {
                    // Safety valve: generics never contain these.
                    self.pos -= 1;
                    return;
                }
                _ => {}
            }
            if depth <= 0 {
                return;
            }
        }
    }

    fn fn_item(&mut self) {
        let lo = self.pos;
        self.pos += 1; // `fn`
        let Some(name_tok) = self.peek() else { return };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        self.pos += 1;
        if self.peek_text() == "<" {
            self.skip_angles();
        }
        let params = if self.peek_text() == "(" { self.params() } else { Vec::new() };
        // Return type: `-> Type` up to `{`, `;`, or `where`.
        let mut ret = None;
        if self.eat("->") {
            let ty = self.type_text(&["{", ";", "where"]);
            if !ty.is_empty() {
                ret = Some(ty);
            }
        }
        if self.peek_text() == "where" {
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "{" | ";" => break,
                    "<" => self.skip_angles(),
                    _ => self.pos += 1,
                }
            }
        }
        match self.peek_text() {
            "{" => {
                let body = self.block();
                let hi = body.span.hi;
                self.out.fns.push(Fn { name, params, ret, body, span: Span { lo, hi } });
            }
            ";" => {
                self.pos += 1; // trait method declaration — not recorded
            }
            _ => {}
        }
    }

    /// Parse `(a: Ty, mut b: Ty, ...)` — `self` receivers are skipped.
    fn params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        self.pos += 1; // `(`
        loop {
            match self.peek_text() {
                ")" => {
                    self.pos += 1;
                    return params;
                }
                "" => return params,
                _ => {}
            }
            self.skip_attrs();
            // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`,
            // `mut self`, `self: Type`.
            let save = self.pos;
            while matches!(self.peek_text(), "&" | "mut") || matches!(self.peek().map(|t| t.kind), Some(TokenKind::Lifetime))
            {
                self.pos += 1;
            }
            if self.peek_text() == "self" {
                self.pos += 1;
                if self.eat(":") {
                    self.type_text(&[",", ")"]);
                }
                self.eat(",");
                continue;
            }
            self.pos = save;
            // Pattern: collect bound idents until the `:` at depth 0.
            let mut names = Vec::new();
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" if depth == 0 => break,
                    ")" | "]" => depth -= 1,
                    ":" if depth == 0 => break,
                    "," if depth == 0 => break,
                    "mut" | "ref" | "_" => {}
                    _ if t.kind == TokenKind::Ident => names.push(t.text.clone()),
                    _ => {}
                }
                self.pos += 1;
            }
            let ty = if self.eat(":") { self.type_text(&[",", ")"]) } else { String::new() };
            let name = if names.is_empty() { "_".to_string() } else { names.join(".") };
            params.push(Param { name, ty });
            self.eat(",");
        }
    }

    /// Capture a type as flat text until one of `stops` at depth 0.
    /// Balances `<>`, `()`, `[]` (so `Result<(), E>` stays whole).
    fn type_text(&mut self, stops: &[&str]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut angle = 0i32;
        let mut group = 0i32;
        while let Some(t) = self.peek() {
            let text = t.text.as_str();
            if angle <= 0 && group <= 0 && stops.contains(&text) {
                break;
            }
            match text {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" | "[" => group += 1,
                ")" | "]" => {
                    if group == 0 {
                        break; // closing a group the type didn't open
                    }
                    group -= 1;
                }
                "{" | ";" => break, // a type never contains these
                _ => {}
            }
            parts.push(t.text.clone());
            self.pos += 1;
        }
        parts.join(" ")
    }

    // ----- blocks and statements --------------------------------------

    /// Parse a `{ ... }` block. The current token must be `{`.
    fn block(&mut self) -> Block {
        let lo = self.pos;
        self.pos += 1; // `{`
        let mut stmts = Vec::new();
        loop {
            self.skip_attrs();
            match self.peek_text() {
                "}" => {
                    let hi = self.pos;
                    self.pos += 1;
                    return Block { stmts, span: Span { lo, hi } };
                }
                "" => {
                    let hi = self.pos.saturating_sub(1);
                    return Block { stmts, span: Span { lo, hi } };
                }
                ";" => {
                    self.pos += 1;
                    continue;
                }
                "let" => stmts.push(self.let_stmt()),
                kw if ITEM_KEYWORDS.contains(&kw) && self.starts_item() => {
                    let ilo = self.pos;
                    self.item();
                    if self.pos == ilo {
                        self.pos += 1;
                    }
                    stmts.push(Stmt::Item(Span { lo: ilo, hi: self.pos.saturating_sub(1) }));
                }
                _ => {
                    let before = self.pos;
                    let e = self.expr(true);
                    if self.pos == before {
                        self.pos += 1; // ensure progress
                        continue;
                    }
                    if self.eat(";") {
                        stmts.push(Stmt::Expr(e));
                    } else if self.peek_text() == "}" {
                        stmts.push(Stmt::Tail(e));
                    } else {
                        // Block-form expressions (`if`, `match`, loops)
                        // stand alone without `;`; anything else here is
                        // a parse problem — record and continue.
                        stmts.push(Stmt::Expr(e));
                    }
                }
            }
        }
    }

    /// Does the current position start an item (vs. an expression that
    /// happens to begin with a keyword-like token)? `unsafe {` and
    /// keyword-free starts are expressions.
    fn starts_item(&self) -> bool {
        match self.peek_text() {
            "unsafe" => self.peek_at(1).map(|t| t.text.as_str()) == Some("fn"),
            "const" => {
                // `const fn`/`const NAME: ...` are items; `const {}` is
                // an expression (rare; treat as item-free).
                !matches!(self.peek_at(1).map(|t| t.text.as_str()), Some("{"))
            }
            _ => true,
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let lo = self.pos;
        self.pos += 1; // `let`
        // Pattern: collect bound idents until `:`, `=`, or `;` at depth 0.
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ":" if depth == 0 => {
                    // `::` path segment inside a pattern (e.g. enum
                    // variants) never reaches here: `::` is one token.
                    break;
                }
                "=" | ";" if depth == 0 => break,
                "==" if depth == 0 => break,
                "mut" | "ref" | "_" | "&" => {}
                "::" => {
                    // Path pattern like `Some::<T>` — the *last* pushed
                    // ident was a path segment, not a binding.
                    names.pop();
                }
                _ if t.kind == TokenKind::Ident => {
                    // Uppercase initial = almost certainly a type/variant
                    // in a destructuring pattern, not a binding.
                    if t.text.chars().next().map(|c| c.is_lowercase() || c == '_').unwrap_or(false)
                    {
                        names.push(t.text.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        let ty = if self.eat(":") {
            let ty = self.type_text(&["=", ";"]);
            if ty.is_empty() {
                None
            } else {
                Some(ty)
            }
        } else {
            None
        };
        let init = if self.eat("=") { Some(self.expr(false)) } else { None };
        // let-else: `let pat = init else { ... };`
        if self.peek_text() == "else" {
            self.pos += 1;
            if self.peek_text() == "{" {
                let _ = self.block();
            }
        }
        self.eat(";");
        let hi = self.pos.saturating_sub(1);
        Stmt::Let { names, ty, init, span: Span { lo, hi } }
    }

    // ----- expressions -------------------------------------------------

    /// Parse one expression. `stmt_pos` is true in statement position,
    /// where struct literals after a bare path are allowed but a
    /// trailing block belongs to the statement list.
    fn expr(&mut self, _stmt_pos: bool) -> Expr {
        self.expr_bp(0, true)
    }

    /// Pratt loop. `structs` controls struct-literal acceptance (false
    /// inside `if`/`while`/`match` heads).
    fn expr_bp(&mut self, min_bp: u8, structs: bool) -> Expr {
        let mut lhs = self.unary(structs);
        loop {
            let Some(op) = self.peek() else { break };
            let op_text = op.text.clone();
            // Range operators (lowest of the binary family here).
            let bp = match op_text.as_str() {
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => 1,
                ".." | "..=" => 2,
                "||" => 3,
                "&&" => 4,
                "==" | "!=" | "<" | ">" | "<=" | ">=" => 5,
                "|" => 6,
                "^" => 7,
                "&" => 8,
                "<<" | ">>" => 9,
                "+" | "-" => 10,
                "*" | "/" | "%" => 11,
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            match op_text.as_str() {
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => {
                    let rhs = self.expr_bp(bp, structs); // right-assoc
                    let span = lhs.span.to(rhs.span);
                    lhs = Expr {
                        kind: ExprKind::Assign(op_text, Box::new(lhs), Box::new(rhs)),
                        span,
                    };
                }
                ".." | "..=" => {
                    // Open-ended range end? (`a..`, `a..=` can't occur,
                    // `..b` handled in unary).
                    let end_starts = !matches!(
                        self.peek_text(),
                        "" | ")" | "]" | "}" | "," | ";" | "{" | "=>"
                    );
                    let rhs = if end_starts {
                        Some(Box::new(self.expr_bp(bp + 1, structs)))
                    } else {
                        None
                    };
                    let span = match &rhs {
                        Some(r) => lhs.span.to(r.span),
                        None => lhs.span,
                    };
                    lhs = Expr { kind: ExprKind::Range(Some(Box::new(lhs)), rhs), span };
                }
                _ => {
                    let rhs = self.expr_bp(bp + 1, structs);
                    let span = lhs.span.to(rhs.span);
                    lhs = Expr {
                        kind: ExprKind::Binary(op_text, Box::new(lhs), Box::new(rhs)),
                        span,
                    };
                }
            }
        }
        lhs
    }

    fn unary(&mut self, structs: bool) -> Expr {
        let lo = self.pos;
        match self.peek_text() {
            "-" | "!" | "*" => {
                let op: &'static str = match self.peek_text() {
                    "-" => "-",
                    "!" => "!",
                    _ => "*",
                };
                self.pos += 1;
                let e = self.unary(structs);
                let span = Span { lo, hi: e.span.hi };
                Expr { kind: ExprKind::Unary(op, Box::new(e)), span }
            }
            "&" | "&&" => {
                // `&&x` is two refs fused by the lexer.
                let double = self.peek_text() == "&&";
                self.pos += 1;
                self.eat("mut");
                let e = self.unary(structs);
                let span = Span { lo, hi: e.span.hi };
                let inner = Expr { kind: ExprKind::Ref(Box::new(e)), span };
                if double {
                    Expr { kind: ExprKind::Ref(Box::new(inner)), span }
                } else {
                    inner
                }
            }
            ".." | "..=" => {
                self.pos += 1;
                let end_starts =
                    !matches!(self.peek_text(), "" | ")" | "]" | "}" | "," | ";" | "{" | "=>");
                let rhs =
                    if end_starts { Some(Box::new(self.expr_bp(3, structs))) } else { None };
                let hi = rhs.as_ref().map(|r| r.span.hi).unwrap_or(lo);
                Expr { kind: ExprKind::Range(None, rhs), span: Span { lo, hi } }
            }
            _ => self.postfix(structs),
        }
    }

    fn postfix(&mut self, structs: bool) -> Expr {
        let mut e = self.primary(structs);
        loop {
            match self.peek_text() {
                "." => {
                    let Some(next) = self.peek_at(1) else { break };
                    match next.kind {
                        TokenKind::Ident => {
                            let name = next.text.clone();
                            self.pos += 2;
                            // Turbofish on methods: `.collect::<Vec<_>>()`.
                            if self.peek_text() == "::" {
                                self.pos += 1;
                                if self.peek_text() == "<" {
                                    self.skip_angles();
                                }
                            }
                            if self.peek_text() == "(" {
                                let args = self.call_args();
                                let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                                e = Expr {
                                    kind: ExprKind::MethodCall(Box::new(e), name, args),
                                    span,
                                };
                            } else {
                                let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                                e = Expr { kind: ExprKind::Field(Box::new(e), name), span };
                            }
                        }
                        TokenKind::Int => {
                            // Tuple index `.0` (also `.0.1` fused? the
                            // lexer emits `0` then `.` then `1`).
                            let name = next.text.clone();
                            self.pos += 2;
                            let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                            e = Expr { kind: ExprKind::Field(Box::new(e), name), span };
                        }
                        TokenKind::Float => {
                            // `.0.1` may lex as Float "0.1": split it
                            // into two tuple-field accesses.
                            self.pos += 2;
                            let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                            let inner = Expr {
                                kind: ExprKind::Field(Box::new(e), "0".to_string()),
                                span,
                            };
                            e = Expr { kind: ExprKind::Field(Box::new(inner), "1".into()), span };
                        }
                        _ => {
                            // `.await` etc. — consume and continue.
                            self.pos += 2;
                        }
                    }
                }
                "(" => {
                    let args = self.call_args();
                    let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                    e = Expr { kind: ExprKind::Call(Box::new(e), args), span };
                }
                "[" => {
                    self.pos += 1;
                    let idx = self.expr_bp(0, true);
                    self.eat("]");
                    let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                    e = Expr { kind: ExprKind::Index(Box::new(e), Box::new(idx)), span };
                }
                "?" => {
                    self.pos += 1;
                    let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                    e = Expr { kind: ExprKind::Try(Box::new(e)), span };
                }
                "as" => {
                    self.pos += 1;
                    let ty = self.type_text(&[
                        ",", ";", ")", "]", "}", "?", "{", "==", "!=", "<=", ">=", "&&", "||",
                        "+", "-", "*", "/", "%", "as", "=>", "..", "..=", ".",
                    ]);
                    let span = Span { lo: e.span.lo, hi: self.pos.saturating_sub(1) };
                    e = Expr { kind: ExprKind::Cast(Box::new(e), ty), span };
                }
                _ => break,
            }
        }
        e
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.pos += 1; // `(`
        loop {
            match self.peek_text() {
                ")" => {
                    self.pos += 1;
                    return args;
                }
                "" => return args,
                "," => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    args.push(self.expr_bp(0, true));
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn primary(&mut self, structs: bool) -> Expr {
        let lo = self.pos;
        let Some(t) = self.peek() else {
            return Expr { kind: ExprKind::Opaque, span: Span::at(lo.saturating_sub(1)) };
        };
        match t.kind {
            TokenKind::Int => {
                self.pos += 1;
                Expr { kind: ExprKind::Lit(LitKind::Int, t.text.clone()), span: Span::at(lo) }
            }
            TokenKind::Float => {
                self.pos += 1;
                Expr { kind: ExprKind::Lit(LitKind::Float, t.text.clone()), span: Span::at(lo) }
            }
            TokenKind::Str => {
                self.pos += 1;
                Expr { kind: ExprKind::Lit(LitKind::Str, t.text.clone()), span: Span::at(lo) }
            }
            TokenKind::Char => {
                self.pos += 1;
                Expr { kind: ExprKind::Lit(LitKind::Char, t.text.clone()), span: Span::at(lo) }
            }
            TokenKind::Lifetime => {
                // Labeled block/loop: `'a: loop { ... }`.
                self.pos += 1;
                self.eat(":");
                self.primary(structs)
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    let mut is_tuple = false;
                    loop {
                        match self.peek_text() {
                            ")" => {
                                self.pos += 1;
                                break;
                            }
                            "" => break,
                            "," => {
                                is_tuple = true;
                                self.pos += 1;
                            }
                            _ => {
                                let before = self.pos;
                                items.push(self.expr_bp(0, true));
                                if self.pos == before {
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    let span = Span { lo, hi: self.pos.saturating_sub(1) };
                    if !is_tuple && items.len() == 1 {
                        let inner = items.pop().unwrap_or(Expr {
                            kind: ExprKind::Opaque,
                            span,
                        });
                        Expr { kind: ExprKind::Paren(Box::new(inner)), span }
                    } else {
                        Expr { kind: ExprKind::Tuple(items), span }
                    }
                }
                "[" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    loop {
                        match self.peek_text() {
                            "]" => {
                                self.pos += 1;
                                break;
                            }
                            "" => break,
                            "," | ";" => {
                                self.pos += 1;
                            }
                            _ => {
                                let before = self.pos;
                                items.push(self.expr_bp(0, true));
                                if self.pos == before {
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    let span = Span { lo, hi: self.pos.saturating_sub(1) };
                    Expr { kind: ExprKind::Array(items), span }
                }
                "{" => {
                    let b = self.block();
                    let span = b.span;
                    Expr { kind: ExprKind::BlockExpr(b), span }
                }
                "|" | "||" => self.closure(lo),
                _ => {
                    self.pos += 1;
                    Expr { kind: ExprKind::Opaque, span: Span::at(lo) }
                }
            },
            TokenKind::Ident => match t.text.as_str() {
                "true" | "false" => {
                    self.pos += 1;
                    Expr { kind: ExprKind::Lit(LitKind::Bool, t.text.clone()), span: Span::at(lo) }
                }
                "if" => self.if_expr(lo),
                "match" => self.match_expr(lo),
                "while" => {
                    self.pos += 1;
                    // `while let pat = expr` — skip the let pattern.
                    let mut heads = Vec::new();
                    if self.eat("let") {
                        while !matches!(self.peek_text(), "=" | "{" | "") {
                            self.pos += 1;
                        }
                        self.eat("=");
                    }
                    heads.push(self.expr_bp(0, false));
                    let body = if self.peek_text() == "{" { self.block() } else { Block::default() };
                    let span = Span { lo, hi: self.pos.saturating_sub(1) };
                    Expr { kind: ExprKind::Loop(heads, body), span }
                }
                "loop" => {
                    self.pos += 1;
                    let body = if self.peek_text() == "{" { self.block() } else { Block::default() };
                    let span = Span { lo, hi: self.pos.saturating_sub(1) };
                    Expr { kind: ExprKind::Loop(Vec::new(), body), span }
                }
                "for" => {
                    self.pos += 1;
                    // `for pat in iter { .. }` — skip pattern to `in`.
                    while !matches!(self.peek_text(), "in" | "{" | "") {
                        self.pos += 1;
                    }
                    self.eat("in");
                    let iter = self.expr_bp(0, false);
                    let body = if self.peek_text() == "{" { self.block() } else { Block::default() };
                    let span = Span { lo, hi: self.pos.saturating_sub(1) };
                    Expr { kind: ExprKind::Loop(vec![iter], body), span }
                }
                "unsafe" if self.peek_at(1).map(|t| t.text.as_str()) == Some("{") => {
                    self.pos += 1;
                    let b = self.block();
                    let span = Span { lo, hi: b.span.hi };
                    Expr { kind: ExprKind::BlockExpr(b), span }
                }
                "move" => {
                    self.pos += 1;
                    self.closure(lo)
                }
                "return" | "break" => {
                    self.pos += 1;
                    let has_value = !matches!(
                        self.peek_text(),
                        "" | ";" | "}" | ")" | "]" | "," | "=>"
                    ) && !(self.peek_text() != ""
                        && self.peek().map(|t| t.kind) == Some(TokenKind::Lifetime));
                    let inner = if has_value { Some(Box::new(self.expr_bp(0, structs))) } else { None };
                    let span = Span { lo, hi: self.pos.saturating_sub(1).max(lo) };
                    Expr { kind: ExprKind::Jump(inner), span }
                }
                "continue" => {
                    self.pos += 1;
                    Expr { kind: ExprKind::Jump(None), span: Span::at(lo) }
                }
                _ => self.path_or_struct(lo, structs),
            },
        }
    }

    fn closure(&mut self, lo: usize) -> Expr {
        let mut params = Vec::new();
        match self.peek_text() {
            "||" => {
                self.pos += 1;
            }
            "|" => {
                self.pos += 1;
                // Params until closing `|` at depth 0.
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "|" if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        _ if t.kind == TokenKind::Ident
                            && t.text != "mut"
                            && t.text != "ref"
                            && depth == 0 =>
                        {
                            // Only top-level idents before a `:` are
                            // bindings; type names after `:` are skipped
                            // by the depth heuristic below.
                            params.push(t.text.clone());
                            self.pos += 1;
                            if self.peek_text() == ":" {
                                self.pos += 1;
                                self.type_text(&["|", ","]);
                            }
                            continue;
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
            }
            _ => {}
        }
        // Optional `-> Type` before a braced body.
        if self.eat("->") {
            self.type_text(&["{"]);
        }
        let body = self.expr_bp(0, true);
        let span = Span { lo, hi: body.span.hi };
        Expr { kind: ExprKind::Closure(params, Box::new(body)), span }
    }

    fn if_expr(&mut self, lo: usize) -> Expr {
        self.pos += 1; // `if`
        // `if let pat = expr` — skip the pattern.
        if self.eat("let") {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" if depth == 0 => break,
                    "{" if depth == 0 => break,
                    "" => break,
                    _ => {}
                }
                self.pos += 1;
            }
            self.eat("=");
        }
        let cond = self.expr_bp(0, false);
        let then = if self.peek_text() == "{" { self.block() } else { Block::default() };
        let els = if self.peek_text() == "else" {
            self.pos += 1;
            if self.peek_text() == "if" {
                let elo = self.pos;
                Some(Box::new(self.if_expr(elo)))
            } else if self.peek_text() == "{" {
                let b = self.block();
                let span = b.span;
                Some(Box::new(Expr { kind: ExprKind::BlockExpr(b), span }))
            } else {
                None
            }
        } else {
            None
        };
        let span = Span { lo, hi: self.pos.saturating_sub(1) };
        Expr { kind: ExprKind::If(Box::new(cond), then, els), span }
    }

    fn match_expr(&mut self, lo: usize) -> Expr {
        self.pos += 1; // `match`
        let scrutinee = self.expr_bp(0, false);
        let mut arms = Vec::new();
        if self.peek_text() == "{" {
            self.pos += 1;
            loop {
                self.skip_attrs();
                match self.peek_text() {
                    "}" => {
                        self.pos += 1;
                        break;
                    }
                    "" => break,
                    "," => {
                        self.pos += 1;
                    }
                    _ => {
                        // Pattern (+ optional guard) to `=>` at depth 0.
                        let mut depth = 0i32;
                        while let Some(t) = self.peek() {
                            match t.text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                "=>" if depth == 0 => break,
                                "" => break,
                                _ => {}
                            }
                            if self.peek_text() == "" {
                                break;
                            }
                            self.pos += 1;
                        }
                        if !self.eat("=>") {
                            break; // malformed arm; bail out of the match
                        }
                        let before = self.pos;
                        arms.push(self.expr_bp(0, true));
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                }
            }
        }
        let span = Span { lo, hi: self.pos.saturating_sub(1) };
        Expr { kind: ExprKind::Match(Box::new(scrutinee), arms), span }
    }

    /// A path, possibly a macro call (`path!(...)`), a struct literal
    /// (`Path { .. }` when allowed), or a bare ident.
    fn path_or_struct(&mut self, lo: usize, structs: bool) -> Expr {
        let mut segs = Vec::new();
        loop {
            let Some(t) = self.peek() else { break };
            if t.kind != TokenKind::Ident {
                break;
            }
            segs.push(t.text.clone());
            self.pos += 1;
            if self.peek_text() == "::" {
                self.pos += 1;
                if self.peek_text() == "<" {
                    self.skip_angles(); // turbofish
                    if self.peek_text() == "::" {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            self.pos += 1;
            return Expr { kind: ExprKind::Opaque, span: Span::at(lo) };
        }
        // Macro call?
        if self.peek_text() == "!" {
            let after = self.peek_at(1).map(|t| t.text.as_str());
            if matches!(after, Some("(") | Some("[") | Some("{")) {
                self.pos += 1;
                self.skip_group();
                let span = Span { lo, hi: self.pos.saturating_sub(1) };
                return Expr { kind: ExprKind::MacroCall(segs), span };
            }
        }
        // Struct literal? Only when allowed and it *looks* like one:
        // `{` followed by `ident:`, `ident,`, `ident }`, or `..`.
        if structs && self.peek_text() == "{" && self.looks_like_struct_lit() {
            self.pos += 1; // `{`
            let mut fields = Vec::new();
            loop {
                match self.peek_text() {
                    "}" => {
                        self.pos += 1;
                        break;
                    }
                    "" => break,
                    "," => {
                        self.pos += 1;
                    }
                    ".." => {
                        // Functional update `..base`.
                        self.pos += 1;
                        let _ = self.expr_bp(0, true);
                    }
                    _ => {
                        let Some(name_tok) = self.peek() else { break };
                        let fname = name_tok.text.clone();
                        self.pos += 1;
                        if self.eat(":") {
                            let before = self.pos;
                            let val = self.expr_bp(0, true);
                            if self.pos == before {
                                self.pos += 1;
                            }
                            fields.push((fname, val));
                        } else {
                            // Shorthand `Field { name }`.
                            let span = Span::at(self.pos.saturating_sub(1));
                            fields.push((
                                fname.clone(),
                                Expr { kind: ExprKind::Path(vec![fname]), span },
                            ));
                        }
                    }
                }
            }
            let span = Span { lo, hi: self.pos.saturating_sub(1) };
            return Expr { kind: ExprKind::StructLit(segs, fields), span };
        }
        let span = Span { lo, hi: self.pos.saturating_sub(1) };
        Expr { kind: ExprKind::Path(segs), span }
    }

    /// Lookahead: does `{ ... }` at the current position read as a
    /// struct-literal body rather than a block?
    fn looks_like_struct_lit(&self) -> bool {
        let t1 = self.peek_at(1).map(|t| t.text.as_str());
        let t2 = self.peek_at(2).map(|t| t.text.as_str());
        match (self.peek_at(1).map(|t| t.kind), t1, t2) {
            (_, Some("}"), _) => true,                       // `Path {}`
            (_, Some(".."), _) => true,                      // `Path { ..base }`
            (Some(TokenKind::Ident), _, Some(":")) => true,  // `field: ...`
            (Some(TokenKind::Ident), _, Some(",")) => true,  // shorthand
            (Some(TokenKind::Ident), _, Some("}")) => true,  // single shorthand
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src).tokens)
    }

    fn first_fn(src: &str) -> Fn {
        let mut f = parse_src(src);
        assert!(!f.fns.is_empty(), "no fn parsed from {src:?}");
        f.fns.remove(0)
    }

    #[test]
    fn fn_signature_and_lets() {
        let f = first_fn(
            "pub fn alloc(budget: Watts, share: f64) -> Result<Watts, E> {\n\
             let cap = budget * share;\n\
             let mut rest: Watts = budget - cap;\n\
             rest\n}\n",
        );
        assert_eq!(f.name, "alloc");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "budget");
        assert_eq!(f.params[0].ty, "Watts");
        assert!(f.ret.as_deref().unwrap_or("").contains("Result"));
        assert_eq!(f.body.stmts.len(), 3);
        let Stmt::Let { names, ty, init, .. } = &f.body.stmts[1] else {
            panic!("expected let: {:?}", f.body.stmts[1])
        };
        assert_eq!(names, &["rest"]);
        assert_eq!(ty.as_deref(), Some("Watts"));
        assert!(init.is_some());
    }

    #[test]
    fn binary_precedence() {
        let f = first_fn("fn f(a: f64, b: f64, c: f64) -> f64 { a + b * c }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!() };
        let ExprKind::Binary(op, _, rhs) = &e.kind else { panic!("{e:?}") };
        assert_eq!(op, "+");
        assert!(matches!(&rhs.kind, ExprKind::Binary(m, _, _) if m == "*"));
    }

    #[test]
    fn method_chains_fields_and_casts() {
        let f = first_fn("fn f(w: Watts) -> u64 { (w.value() * 1e6).round() as u64 }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!() };
        let ExprKind::Cast(inner, ty) = &e.kind else { panic!("{e:?}") };
        assert_eq!(ty, "u64");
        assert!(matches!(&inner.kind, ExprKind::MethodCall(_, m, _) if m == "round"));
    }

    #[test]
    fn tuple_field_access() {
        let f = first_fn("fn f(w: Watts) -> f64 { w.0 }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!() };
        assert!(matches!(&e.kind, ExprKind::Field(_, n) if n == "0"));
    }

    #[test]
    fn if_without_struct_literal_confusion() {
        let f = first_fn("fn f(x: usize) -> usize { if x > 1 { x } else { 0 } }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!("{:?}", f.body.stmts) };
        assert!(matches!(&e.kind, ExprKind::If(..)));
    }

    #[test]
    fn struct_literal_in_expression_position() {
        let f = first_fn("fn f() -> P { P { x: 1, y: 2 } }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!("{:?}", f.body.stmts) };
        let ExprKind::StructLit(path, fields) = &e.kind else { panic!("{e:?}") };
        assert_eq!(path, &["P"]);
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn nested_fns_in_mods_and_impls_are_hoisted() {
        let f = parse_src(
            "mod m { impl T { fn a(&self) {} } }\ntrait Q { fn b(&self) { let x = 1; } }\n",
        );
        let names: Vec<_> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn closures_and_match() {
        let f = first_fn(
            "fn f(v: Vec<f64>) -> f64 {\n\
             let s = v.iter().map(|x| x * 2.0).sum();\n\
             match s { 0 => 1.0, _ => s }\n}\n",
        );
        assert_eq!(f.body.stmts.len(), 2);
        let Stmt::Tail(e) = &f.body.stmts[1] else { panic!() };
        let ExprKind::Match(_, arms) = &e.kind else { panic!("{e:?}") };
        assert_eq!(arms.len(), 2);
    }

    #[test]
    fn loops_and_assignments() {
        let f = first_fn(
            "fn f(mut w: f64) -> f64 { for i in 0..10 { w += i as f64; } while w > 1.0 { w /= 2.0; } w }",
        );
        assert_eq!(f.body.stmts.len(), 3);
        assert!(matches!(
            &f.body.stmts[0],
            Stmt::Expr(Expr { kind: ExprKind::Loop(heads, _), .. }) if heads.len() == 1
        ));
    }

    #[test]
    fn let_destructuring_binds_lowercase_idents() {
        let f = first_fn("fn f(p: (f64, f64)) { let (a, b) = p; let Some(x) = q else { return; }; }");
        let Stmt::Let { names, .. } = &f.body.stmts[0] else { panic!() };
        assert_eq!(names, &["a", "b"]);
        let Stmt::Let { names, .. } = &f.body.stmts[1] else { panic!("{:?}", f.body.stmts[1]) };
        assert_eq!(names, &["x"]);
    }

    #[test]
    fn macro_calls_are_opaque_but_bounded() {
        let f = first_fn("fn f() { assert!(a == b, \"{}\", c); let x = format!(\"{}\", 1); }");
        assert_eq!(f.body.stmts.len(), 2);
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[1] else { panic!() };
        assert!(matches!(&e.kind, ExprKind::MacroCall(p) if p == &["format"]));
    }

    #[test]
    fn turbofish_does_not_derail() {
        let f = first_fn("fn f() -> Vec<u8> { Vec::<u8>::with_capacity(4) }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!("{:?}", f.body.stmts) };
        assert!(matches!(&e.kind, ExprKind::Call(..)));
    }

    #[test]
    fn generic_fn_signatures_parse() {
        let f = first_fn(
            "fn f<T: Clone, F>(xs: &[T], g: F) -> Option<T> where F: Fn(&T) -> bool { None }",
        );
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, "& [ T ]");
    }

    #[test]
    fn parser_is_total_on_garbage() {
        let f = parse_src("fn f( {{{ ]] ;; fn g() { let x = ; } @@@@");
        // Must terminate and hoist whatever it can.
        assert!(f.fns.len() <= 2);
    }

    #[test]
    fn references_and_try() {
        let f = first_fn("fn f(x: &mut f64) -> Result<f64, E> { let y = (*x).abs()?; Ok(y) }");
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[0] else { panic!() };
        assert!(matches!(&e.kind, ExprKind::Try(_)));
    }

    #[test]
    fn range_expressions() {
        let f = first_fn("fn f(n: usize) -> usize { (0..n).len() }");
        let Stmt::Tail(e) = &f.body.stmts[0] else { panic!() };
        assert!(matches!(&e.kind, ExprKind::MethodCall(..)));
    }
}
