//! SASE-style query text parser (the language of Fig. 1).
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query   := RETURN agg PATTERN pattern [WHERE cond (AND cond)*]
//!            [GROUP BY ident (, ident)*] WITHIN int [SLIDE int]
//! agg     := COUNT(*) | COUNT(Type) | SUM(Type.attr) | AVG(Type.attr)
//!          | MIN(Type.attr) | MAX(Type.attr)
//! pattern := unit ((OR | AND) unit)*
//! unit    := SEQ(pattern, …) | NOT unit | Type['+'] | '(' pattern ')' ['+']
//! cond    := Type.attr op literal          -- selection predicate
//!          | Type.attr op PREV.attr        -- edge predicate
//!          | '[' ident (, ident)* ']'      -- equivalence attributes
//! op      := < | <= | > | >= | = | !=
//! ```
//!
//! Event types must be pre-registered in the [`TypeRegistry`] so attribute
//! names can be resolved to schema slots.

use crate::aggregate::AggFunc;
use crate::pattern::Pattern;
use crate::predicate::{CmpOp, EdgePredicate, SelectionPredicate};
use crate::query::{Query, QueryId};
use crate::window::Window;
use hamlet_types::{AttrValue, EventTypeId, TypeRegistry};
use std::fmt;
use std::sync::Arc;

/// Deepest nesting of pattern units (`SEQ(`, `(`, `NOT`, and each
/// `OR` / `AND` of a chain) a text may have: deeper is a [`ParseError`],
/// not a stack overflow.
pub const MAX_PATTERN_DEPTH: usize = 128;

/// Parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Plus,
    Star,
    Op(CmpOp),
}

fn tokenize(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let mut it = input.chars().peekable();
    while let Some(&c) = it.peek() {
        match c {
            c if c.is_whitespace() => {
                it.next();
            }
            '(' => {
                it.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                it.next();
                toks.push(Tok::RParen);
            }
            '[' => {
                it.next();
                toks.push(Tok::LBracket);
            }
            ']' => {
                it.next();
                toks.push(Tok::RBracket);
            }
            ',' => {
                it.next();
                toks.push(Tok::Comma);
            }
            '.' => {
                it.next();
                toks.push(Tok::Dot);
            }
            '+' => {
                it.next();
                toks.push(Tok::Plus);
            }
            '*' => {
                it.next();
                toks.push(Tok::Star);
            }
            '<' => {
                it.next();
                if it.peek() == Some(&'=') {
                    it.next();
                    toks.push(Tok::Op(CmpOp::Le));
                } else {
                    toks.push(Tok::Op(CmpOp::Lt));
                }
            }
            '>' => {
                it.next();
                if it.peek() == Some(&'=') {
                    it.next();
                    toks.push(Tok::Op(CmpOp::Ge));
                } else {
                    toks.push(Tok::Op(CmpOp::Gt));
                }
            }
            '=' => {
                it.next();
                toks.push(Tok::Op(CmpOp::Eq));
            }
            '!' => {
                it.next();
                if it.peek() == Some(&'=') {
                    it.next();
                    toks.push(Tok::Op(CmpOp::Ne));
                } else {
                    return err("stray '!'");
                }
            }
            '\'' | '"' => {
                let quote = c;
                it.next();
                let mut s = String::new();
                loop {
                    match it.next() {
                        Some(ch) if ch == quote => break,
                        Some(ch) => s.push(ch),
                        None => return err("unterminated string literal"),
                    }
                }
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                it.next();
                let mut is_float = false;
                while let Some(&d) = it.peek() {
                    if d.is_ascii_digit() {
                        s.push(d);
                        it.next();
                    } else if d == '.' {
                        // Lookahead: `3.5` is a float, but we never emit
                        // `Type.attr` starting with a digit, so '.' after
                        // digits is part of the number.
                        is_float = true;
                        s.push(d);
                        it.next();
                    } else {
                        break;
                    }
                }
                if is_float {
                    match s.parse::<f64>() {
                        Ok(v) => toks.push(Tok::Float(v)),
                        Err(_) => return err(format!("bad float literal {s:?}")),
                    }
                } else {
                    match s.parse::<i64>() {
                        Ok(v) => toks.push(Tok::Int(v)),
                        Err(_) => return err(format!("bad int literal {s:?}")),
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        it.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(s));
            }
            other => return err(format!("unexpected character {other:?}")),
        }
    }
    Ok(toks)
}

struct P<'a> {
    toks: Vec<Tok>,
    pos: usize,
    reg: &'a TypeRegistry,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            err(format!("expected keyword {kw}, found {:?}", self.peek()))
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => err(format!("expected {t:?}, found {got:?}")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => err(format!("expected identifier, found {got:?}")),
        }
    }

    fn type_id(&mut self) -> Result<EventTypeId, ParseError> {
        let name = self.ident()?;
        self.reg
            .type_id(&name)
            .ok_or_else(|| ParseError(format!("unknown event type {name:?}")))
    }

    fn type_attr(&mut self) -> Result<(EventTypeId, usize), ParseError> {
        let ty = self.type_id()?;
        self.expect(Tok::Dot)?;
        let attr = self.ident()?;
        let idx = self.reg.attr_index(ty, &attr).ok_or_else(|| {
            ParseError(format!(
                "type {:?} has no attribute {attr:?}",
                self.reg.name(ty)
            ))
        })?;
        Ok((ty, idx))
    }

    fn agg(&mut self) -> Result<AggFunc, ParseError> {
        let name = self.ident()?.to_ascii_uppercase();
        self.expect(Tok::LParen)?;
        let f = match name.as_str() {
            "COUNT" => {
                if matches!(self.peek(), Some(Tok::Star)) {
                    self.next();
                    AggFunc::CountStar
                } else {
                    AggFunc::CountType(self.type_id()?)
                }
            }
            "SUM" => {
                let (t, a) = self.type_attr()?;
                AggFunc::Sum(t, a)
            }
            "AVG" => {
                let (t, a) = self.type_attr()?;
                AggFunc::Avg(t, a)
            }
            "MIN" => {
                let (t, a) = self.type_attr()?;
                AggFunc::Min(t, a)
            }
            "MAX" => {
                let (t, a) = self.type_attr()?;
                AggFunc::Max(t, a)
            }
            other => return err(format!("unknown aggregate {other}")),
        };
        self.expect(Tok::RParen)?;
        Ok(f)
    }

    fn pattern(&mut self, mut depth: usize) -> Result<Pattern, ParseError> {
        let mut left = self.pattern_unit(depth)?;
        loop {
            // Each `OR` / `AND` nests everything before it one level down.
            depth += 1;
            if self.eat_kw("OR") {
                let right = self.pattern_unit(depth)?;
                left = Pattern::Or(Box::new(left), Box::new(right));
            } else if self.peek_kw("AND") && !self.at_clause_boundary_ahead() {
                self.next();
                let right = self.pattern_unit(depth)?;
                left = Pattern::And(Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    /// `AND` is also the WHERE-clause connective; inside the PATTERN clause
    /// it always connects two pattern units, so no real ambiguity arises —
    /// this hook exists for clarity and future clause keywords.
    fn at_clause_boundary_ahead(&self) -> bool {
        false
    }

    fn pattern_unit(&mut self, depth: usize) -> Result<Pattern, ParseError> {
        if depth > MAX_PATTERN_DEPTH {
            return err(format!("pattern nested deeper than {MAX_PATTERN_DEPTH}"));
        }
        if self.eat_kw("SEQ") {
            self.expect(Tok::LParen)?;
            let mut parts = Vec::new();
            loop {
                parts.push(self.pattern(depth + 1)?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    got => return err(format!("expected ',' or ')' in SEQ, found {got:?}")),
                }
            }
            return Ok(Pattern::Seq(parts));
        }
        if self.eat_kw("NOT") {
            let inner = self.pattern_unit(depth + 1)?;
            return Ok(Pattern::Not(Box::new(inner)));
        }
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.next();
            let inner = self.pattern(depth + 1)?;
            self.expect(Tok::RParen)?;
            if matches!(self.peek(), Some(Tok::Plus)) {
                self.next();
                return Ok(Pattern::plus(inner));
            }
            return Ok(inner);
        }
        let ty = self.type_id()?;
        if matches!(self.peek(), Some(Tok::Plus)) {
            self.next();
            Ok(Pattern::plus(Pattern::Type(ty)))
        } else {
            Ok(Pattern::Type(ty))
        }
    }

    fn literal(&mut self) -> Result<AttrValue, ParseError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(AttrValue::Int(i)),
            Some(Tok::Float(f)) => Ok(AttrValue::Float(f)),
            Some(Tok::Str(s)) => Ok(AttrValue::from(s.as_str())),
            got => err(format!("expected literal, found {got:?}")),
        }
    }
}

/// Parses just a pattern expression (used by tests and workload builders).
pub fn parse_pattern(reg: &TypeRegistry, text: &str) -> Result<Pattern, ParseError> {
    let toks = tokenize(text)?;
    let mut p = P { toks, pos: 0, reg };
    let pat = p.pattern(0)?;
    if p.peek().is_some() {
        return err(format!("trailing input after pattern: {:?}", p.peek()));
    }
    Ok(pat)
}

/// Parses a full query.
pub fn parse_query(reg: &TypeRegistry, id: u32, text: &str) -> Result<Query, ParseError> {
    let toks = tokenize(text)?;
    let mut p = P { toks, pos: 0, reg };

    p.expect_kw("RETURN")?;
    let agg = p.agg()?;
    p.expect_kw("PATTERN")?;
    let pattern = p.pattern(0)?;

    let mut selections = Vec::new();
    let mut edges = Vec::new();
    let mut equiv: Vec<Arc<str>> = Vec::new();
    if p.eat_kw("WHERE") {
        loop {
            if matches!(p.peek(), Some(Tok::LBracket)) {
                p.next();
                loop {
                    let a = p.ident()?;
                    equiv.push(Arc::from(a.as_str()));
                    match p.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => break,
                        got => return err(format!("expected ',' or ']', found {got:?}")),
                    }
                }
            } else {
                let (ty, attr) = p.type_attr()?;
                let op = match p.next() {
                    Some(Tok::Op(op)) => op,
                    got => return err(format!("expected comparison operator, found {got:?}")),
                };
                if p.peek_kw("PREV") {
                    p.next();
                    p.expect(Tok::Dot)?;
                    let pattr = p.ident()?;
                    let prev_attr = p.reg.attr_index(ty, &pattr).ok_or_else(|| {
                        ParseError(format!(
                            "type {:?} has no attribute {pattr:?}",
                            p.reg.name(ty)
                        ))
                    })?;
                    edges.push(EdgePredicate {
                        ty,
                        cur_attr: attr,
                        op,
                        prev_attr,
                    });
                } else {
                    let value = p.literal()?;
                    selections.push(SelectionPredicate {
                        ty,
                        attr,
                        op,
                        value,
                    });
                }
            }
            if !p.eat_kw("AND") {
                break;
            }
        }
    }

    let mut group_by: Vec<Arc<str>> = Vec::new();
    if p.eat_kw("GROUP") {
        p.expect_kw("BY")?;
        loop {
            let a = p.ident()?;
            group_by.push(Arc::from(a.as_str()));
            if !matches!(p.peek(), Some(Tok::Comma)) {
                break;
            }
            p.next();
        }
    }

    p.expect_kw("WITHIN")?;
    let within = match p.next() {
        Some(Tok::Int(i)) if i > 0 => i as u64,
        got => return err(format!("expected positive window size, found {got:?}")),
    };
    let slide = if p.eat_kw("SLIDE") {
        match p.next() {
            Some(Tok::Int(i)) if i > 0 => i as u64,
            got => return err(format!("expected positive slide, found {got:?}")),
        }
    } else {
        within
    };
    if slide > within {
        return err(format!(
            "slide {slide} longer than the window {within} would drop events"
        ));
    }
    if p.peek().is_some() {
        return err(format!("trailing input: {:?}", p.peek()));
    }

    Query::new(
        QueryId(id),
        pattern,
        agg,
        selections,
        edges,
        group_by,
        equiv,
        Window::new(within, slide),
    )
    .map_err(|e| ParseError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.register("Request", &["district", "driver", "rider", "kind"]);
        reg.register("Travel", &["district", "driver", "rider", "speed"]);
        reg.register("Pickup", &["district", "driver", "rider"]);
        reg.register("Dropoff", &["district", "driver", "rider"]);
        reg.register("Cancel", &["district", "driver", "rider"]);
        reg
    }

    #[test]
    fn parse_fig1_q1_shape() {
        let reg = registry();
        let q = parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(Request, Travel+, NOT Pickup) \
             WHERE [driver, rider] GROUP BY district WITHIN 1800 SLIDE 1800",
        )
        .unwrap();
        assert_eq!(q.id, QueryId(1));
        assert_eq!(q.agg, AggFunc::CountStar);
        assert_eq!(q.equiv.len(), 2);
        assert_eq!(q.group_by.len(), 1);
        let travel = reg.type_id("Travel").unwrap();
        assert!(q.pattern.kleene_types().contains(&travel));
        let pickup = reg.type_id("Pickup").unwrap();
        assert!(q.pattern.negated_types().contains(&pickup));
    }

    #[test]
    fn parse_predicates() {
        let reg = registry();
        let q = parse_query(
            &reg,
            2,
            "RETURN AVG(Travel.speed) PATTERN SEQ(Request, Travel+) \
             WHERE Travel.speed < 10 AND Travel.speed > PREV.speed \
             AND Request.kind = 'Pool' WITHIN 600",
        )
        .unwrap();
        assert_eq!(q.selections.len(), 2);
        assert_eq!(q.edges.len(), 1);
        assert_eq!(q.window, Window::tumbling(600));
        assert!(matches!(q.agg, AggFunc::Avg(_, _)));
    }

    #[test]
    fn parse_nested_kleene() {
        let reg = registry();
        let p = parse_pattern(&reg, "(SEQ(Request, Travel+))+").unwrap();
        assert!(matches!(p, Pattern::Kleene(_)));
        let travel = reg.type_id("Travel").unwrap();
        assert!(p.kleene_types().contains(&travel));
    }

    #[test]
    fn parse_or_and_patterns() {
        let reg = registry();
        let p = parse_pattern(&reg, "SEQ(Request, Travel+) OR Cancel").unwrap();
        assert!(matches!(p, Pattern::Or(_, _)));
        let p = parse_pattern(&reg, "Pickup AND Dropoff").unwrap();
        assert!(matches!(p, Pattern::And(_, _)));
    }

    #[test]
    fn parse_aggregates() {
        let reg = registry();
        for (txt, check) in [
            ("COUNT(*)", AggFunc::CountStar),
            (
                "COUNT(Travel)",
                AggFunc::CountType(reg.type_id("Travel").unwrap()),
            ),
            (
                "SUM(Travel.speed)",
                AggFunc::Sum(reg.type_id("Travel").unwrap(), 3),
            ),
            (
                "MIN(Travel.speed)",
                AggFunc::Min(reg.type_id("Travel").unwrap(), 3),
            ),
            (
                "MAX(Travel.speed)",
                AggFunc::Max(reg.type_id("Travel").unwrap(), 3),
            ),
        ] {
            let q = parse_query(
                &reg,
                0,
                &format!("RETURN {txt} PATTERN SEQ(Request, Travel+) WITHIN 60"),
            )
            .unwrap();
            assert_eq!(q.agg, check, "aggregate {txt}");
        }
    }

    #[test]
    fn errors_are_reported() {
        let reg = registry();
        assert!(parse_query(&reg, 0, "PATTERN SEQ(Request) WITHIN 10").is_err());
        assert!(parse_query(&reg, 0, "RETURN COUNT(*) PATTERN SEQ(Nope+) WITHIN 10").is_err());
        assert!(parse_query(
            &reg,
            0,
            "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) WITHIN 0"
        )
        .is_err());
        assert!(parse_query(
            &reg,
            0,
            "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) WHERE Travel.nope < 1 WITHIN 10"
        )
        .is_err());
        assert!(parse_query(
            &reg,
            0,
            "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) WITHIN 1 SLIDE 4"
        )
        .is_err());
        assert!(parse_pattern(&reg, "SEQ(Request, Travel+) bogus").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn float_and_string_literals() {
        let reg = registry();
        let q = parse_query(
            &reg,
            0,
            "RETURN COUNT(*) PATTERN Travel+ WHERE Travel.speed <= 9.5 WITHIN 60",
        )
        .unwrap();
        assert_eq!(q.selections[0].value, AttrValue::Float(9.5));
    }

    #[test]
    fn default_slide_equals_within() {
        let reg = registry();
        let q = parse_query(&reg, 0, "RETURN COUNT(*) PATTERN Travel+ WITHIN 42").unwrap();
        assert!(q.window.is_tumbling());
        assert_eq!(q.window.within, 42);
    }
}
