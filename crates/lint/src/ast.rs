//! A lightweight Rust AST for semantic lint rules.
//!
//! The parser (`crate::parser`) produces this tree from the lexer's
//! token stream. It is deliberately *shallow* where rules don't need
//! depth — types are kept as flat text, unparseable regions degrade to
//! [`ExprKind::Opaque`] — and *deep* where the unit-flow pass needs
//! structure: function signatures, `let` bindings, and the full
//! expression grammar (binary/unary operators, calls, method chains,
//! field reads, casts, blocks, `if`/`match`/loops/closures).
//!
//! Every node carries a [`Span`]: an inclusive token-index range into
//! the file's token stream. Spans are how diagnostics get a line/column
//! and how the round-trip test re-derives source slices.

use crate::lexer::Token;

/// Inclusive token-index range `[lo, hi]` into a file's token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Index of the first token of the node.
    pub lo: usize,
    /// Index of the last token of the node (inclusive).
    pub hi: usize,
}

impl Span {
    /// Span covering a single token.
    #[must_use]
    pub fn at(i: usize) -> Span {
        Span { lo: i, hi: i }
    }

    /// Smallest span covering both `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// 1-based (line, col) of the span's first token.
    #[must_use]
    pub fn position(self, tokens: &[Token]) -> (usize, usize) {
        tokens.get(self.lo).map(|t| (t.line, t.col)).unwrap_or((1, 1))
    }
}

/// One parsed file: the flattened list of functions (including those
/// nested in `mod`/`impl` blocks) plus how many tokens failed to parse.
#[derive(Debug, Default)]
pub struct File {
    /// Every `fn` item found anywhere in the file, in source order.
    pub fns: Vec<Fn>,
    /// Tokens the parser had to skip as unparseable (diagnostic aid;
    /// a large number means rules are running on partial structure).
    pub opaque_tokens: usize,
}

/// One function item: signature plus parsed body.
#[derive(Debug)]
pub struct Fn {
    /// Function name.
    pub name: String,
    /// Declared parameters, in order. `self` receivers are skipped.
    pub params: Vec<Param>,
    /// Return type as flat text (tokens joined), if any.
    pub ret: Option<String>,
    /// Body block. Trait-method declarations without bodies are not
    /// recorded as `Fn`s at all.
    pub body: Block,
    /// Span of the whole item (from `fn` keyword to closing brace).
    pub span: Span,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (pattern idents joined for destructuring params).
    pub name: String,
    /// Declared type as flat text, with reference/`mut` markers kept.
    pub ty: String,
}

/// A `{ ... }` block: statements in order.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements, including a trailing expression as [`Stmt::Tail`].
    pub stmts: Vec<Stmt>,
    /// Span from `{` to `}`.
    pub span: Span,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat>(: ty)? = init;` — `names` are the idents bound by the
    /// pattern (one for plain bindings, several for destructuring).
    Let {
        /// Idents bound by the pattern, in source order.
        names: Vec<String>,
        /// Declared type as flat text, if annotated.
        ty: Option<String>,
        /// Initializer, if present.
        init: Option<Expr>,
        /// Span of the whole statement.
        span: Span,
    },
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// The block's tail expression (no trailing `;`).
    Tail(Expr),
    /// A nested item (fn/mod/impl/...) — its fns are hoisted into
    /// [`File::fns`]; the statement records only the span.
    Item(Span),
}

impl Stmt {
    /// The statement's span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. } | Stmt::Item(span) => *span,
            Stmt::Expr(e) | Stmt::Tail(e) => e.span,
        }
    }
}

/// An expression node: kind plus covering span.
#[derive(Debug)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Covering token range.
    pub span: Span,
}

/// Literal classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal.
    Int,
    /// Float literal.
    Float,
    /// String-like literal.
    Str,
    /// `true` / `false`.
    Bool,
    /// Char/byte literal.
    Char,
}

/// Expression kinds.
#[derive(Debug)]
pub enum ExprKind {
    /// Literal with its raw text.
    Lit(LitKind, String),
    /// Path (a bare ident is a one-segment path). Turbofish segments
    /// are dropped; `a::b::<T>::c` becomes `["a", "b", "c"]`.
    Path(Vec<String>),
    /// Unary `-x`, `!x`, `*x`.
    Unary(&'static str, Box<Expr>),
    /// Binary operator (`+`, `-`, `==`, `&&`, ...).
    Binary(String, Box<Expr>, Box<Expr>),
    /// Assignment `lhs = rhs` or compound `lhs += rhs` (op keeps text).
    Assign(String, Box<Expr>, Box<Expr>),
    /// Function call `callee(args...)`.
    Call(Box<Expr>, Vec<Expr>),
    /// Method call `recv.name(args...)`.
    MethodCall(Box<Expr>, String, Vec<Expr>),
    /// Field access `recv.name` (covers tuple fields like `.0`).
    Field(Box<Expr>, String),
    /// Index `recv[idx]`.
    Index(Box<Expr>, Box<Expr>),
    /// `expr as Type` cast; type kept as flat text.
    Cast(Box<Expr>, String),
    /// `&expr` / `&mut expr`.
    Ref(Box<Expr>),
    /// `expr?`.
    Try(Box<Expr>),
    /// Parenthesized `(expr)`.
    Paren(Box<Expr>),
    /// Tuple `(a, b, ...)` (including unit `()`).
    Tuple(Vec<Expr>),
    /// Array `[a, b]` / `[x; n]` (elements flattened).
    Array(Vec<Expr>),
    /// `if cond { .. } else ..` — else is an expr (block or `if`).
    If(Box<Expr>, Block, Option<Box<Expr>>),
    /// `match scrutinee { arms }`; arm bodies in order.
    Match(Box<Expr>, Vec<Expr>),
    /// `loop`/`while`/`for` — head exprs (cond / iterated) + body.
    Loop(Vec<Expr>, Block),
    /// A plain block expression (also `unsafe { .. }`).
    BlockExpr(Block),
    /// Closure `|args| body` / `move |args| body`; params are the
    /// argument idents.
    Closure(Vec<String>, Box<Expr>),
    /// Macro invocation `name!(...)`; inner tokens are not parsed.
    MacroCall(Vec<String>),
    /// Struct literal `Path { field: expr, .. }`; field initializers.
    StructLit(Vec<String>, Vec<(String, Expr)>),
    /// Range `a..b` / `a..=b` / open forms; present endpoints.
    Range(Option<Box<Expr>>, Option<Box<Expr>>),
    /// `return expr?` / `break expr?` / `continue`.
    Jump(Option<Box<Expr>>),
    /// Tokens the parser could not structure. Rules must treat this as
    /// "anything could be here".
    Opaque,
}

impl Expr {
    /// Walk this expression tree (pre-order), calling `f` on every node.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Lit(..)
            | ExprKind::Path(_)
            | ExprKind::MacroCall(_)
            | ExprKind::Opaque => {}
            ExprKind::Unary(_, e)
            | ExprKind::Cast(e, _)
            | ExprKind::Ref(e)
            | ExprKind::Try(e)
            | ExprKind::Paren(e)
            | ExprKind::Field(e, _)
            | ExprKind::Closure(_, e) => e.walk(f),
            ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Call(c, args) => {
                c.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::MethodCall(r, _, args) => {
                r.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::Match(_, es) => {
                if let ExprKind::Match(s, _) = &self.kind {
                    s.walk(f);
                }
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::If(c, b, els) => {
                c.walk(f);
                b.walk_exprs(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::Loop(heads, b) => {
                for h in heads {
                    h.walk(f);
                }
                b.walk_exprs(f);
            }
            ExprKind::BlockExpr(b) => b.walk_exprs(f),
            ExprKind::StructLit(_, fields) => {
                for (_, e) in fields {
                    e.walk(f);
                }
            }
            ExprKind::Range(a, b) => {
                if let Some(a) = a {
                    a.walk(f);
                }
                if let Some(b) = b {
                    b.walk(f);
                }
            }
            ExprKind::Jump(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
        }
    }
}

impl Block {
    /// Walk every expression in the block (including nested blocks).
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Tail(e) => e.walk(f),
                _ => {}
            }
        }
    }
}

/// Reconstruct the source slice a span covers, using token positions.
/// Columns are 1-based character offsets, so this is exact for any
/// source (the round-trip test holds it to the lexer).
#[must_use]
// pbc-lint: allow(unreached-pub) the span-fidelity check in parser_roundtrip.rs
pub fn span_text(src: &str, tokens: &[Token], span: Span) -> String {
    let (Some(first), Some(last)) = (tokens.get(span.lo), tokens.get(span.hi)) else {
        return String::new();
    };
    let lines: Vec<&str> = src.split('\n').collect();
    let char_at = |line: usize, col: usize| -> usize {
        // Byte offset of 1-based (line, col).
        let mut off = 0usize;
        for l in &lines[..line.saturating_sub(1)] {
            off += l.len() + 1;
        }
        let l = lines.get(line.saturating_sub(1)).copied().unwrap_or("");
        off + l
            .char_indices()
            .nth(col.saturating_sub(1))
            .map(|(i, _)| i)
            .unwrap_or(l.len())
    };
    let start = char_at(first.line, first.col);
    let end = char_at(last.line, last.col) + last.text.len();
    src.get(start..end).unwrap_or("").to_string()
}
