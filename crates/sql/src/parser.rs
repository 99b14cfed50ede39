//! Recursive-descent parser for the LittleTable SQL dialect.

use crate::ast::*;
use crate::token::{lex, Sym, Token};
use littletable_core::error::{Error, Result};
use littletable_core::value::ColumnType;

/// Parses one statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semi);
    if !p.at_end() {
        return Err(Error::invalid(format!(
            "unexpected trailing tokens at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Parses a duration like `'90d'`, `'36h'`, `'15m'`, `'30s'`, `'20ms'`
/// into micros.
pub fn parse_duration(s: &str) -> Result<i64> {
    let s = s.trim();
    if s.is_empty() {
        return Err(Error::invalid("empty duration"));
    }
    let split = s
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| Error::invalid("duration missing unit (us/ms/s/m/h/d/w)"))?;
    let (num, unit) = s.split_at(split);
    let n: i64 = num
        .parse()
        .map_err(|_| Error::invalid(format!("bad duration number {num:?}")))?;
    let mult = match unit {
        "us" => 1,
        "ms" => 1_000,
        "s" => 1_000_000,
        "m" => 60 * 1_000_000,
        "h" => 3_600 * 1_000_000,
        "d" => 86_400 * 1_000_000,
        "w" => 7 * 86_400 * 1_000_000,
        u => return Err(Error::invalid(format!("unknown duration unit {u:?}"))),
    };
    n.checked_mul(mult)
        .ok_or_else(|| Error::invalid(format!("duration {s:?} out of range")))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::invalid("unexpected end of statement"))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consumes an identifier token, returning it verbatim.
    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            t => Err(Error::invalid(format!("expected identifier, got {t:?}"))),
        }
    }

    /// True (and consumes) when the next token is the given keyword,
    /// case-insensitively.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::invalid(format!(
                "expected {kw}, got {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(sym)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(Error::invalid(format!(
                "expected {sym:?}, got {:?}",
                self.peek()
            )))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("ROLLUP") {
                self.create_rollup()
            } else {
                self.create_table()
            }
        } else if self.eat_kw("DROP") {
            if self.eat_kw("ROLLUP") {
                Ok(Statement::DropRollup {
                    name: self.ident()?,
                })
            } else {
                self.expect_kw("TABLE")?;
                Ok(Statement::DropTable {
                    name: self.ident()?,
                })
            }
        } else if self.eat_kw("ALTER") {
            self.alter()
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else if self.eat_kw("SELECT") {
            self.select().map(Statement::Select)
        } else if self.eat_kw("SHOW") {
            self.expect_kw("TABLES")?;
            Ok(Statement::ShowTables)
        } else if self.eat_kw("DESCRIBE") || self.eat_kw("DESC") {
            Ok(Statement::Describe {
                name: self.ident()?,
            })
        } else {
            Err(Error::invalid(format!(
                "expected a statement, got {:?}",
                self.peek()
            )))
        }
    }

    fn column_type(&mut self) -> Result<ColumnType> {
        let name = self.ident()?;
        Ok(match name.to_ascii_uppercase().as_str() {
            "INT32" => ColumnType::I32,
            "INT64" | "BIGINT" | "INT" | "INTEGER" => ColumnType::I64,
            "DOUBLE" | "REAL" | "FLOAT" => ColumnType::F64,
            "TIMESTAMP" => ColumnType::Timestamp,
            "TEXT" | "STRING" | "VARCHAR" => ColumnType::Str,
            "BLOB" | "BYTES" => ColumnType::Blob,
            t => return Err(Error::invalid(format!("unknown type {t}"))),
        })
    }

    fn literal(&mut self) -> Result<Literal> {
        match self.next()? {
            Token::Int(i) => Ok(Literal::Int(i)),
            Token::Float(f) => Ok(Literal::Float(f)),
            Token::Str(s) => Ok(Literal::Str(s)),
            Token::Blob(b) => Ok(Literal::Blob(b)),
            Token::Symbol(Sym::Minus) => match self.next()? {
                Token::Int(i) => Ok(Literal::Int(-i)),
                Token::Float(f) => Ok(Literal::Float(-f)),
                t => Err(Error::invalid(format!(
                    "expected number after '-', got {t:?}"
                ))),
            },
            Token::Ident(s) if s.eq_ignore_ascii_case("NOW") => {
                self.expect_sym(Sym::LParen)?;
                self.expect_sym(Sym::RParen)?;
                let mut offset = 0i64;
                if self.eat_sym(Sym::Minus) {
                    offset = -self.interval()?;
                } else if self.eat_sym(Sym::Plus) {
                    offset = self.interval()?;
                }
                Ok(Literal::Now {
                    offset_micros: offset,
                })
            }
            t => Err(Error::invalid(format!("expected a literal, got {t:?}"))),
        }
    }

    fn interval(&mut self) -> Result<i64> {
        self.expect_kw("INTERVAL")?;
        match self.next()? {
            Token::Str(s) => parse_duration(&s),
            t => Err(Error::invalid(format!(
                "expected a duration string after INTERVAL, got {t:?}"
            ))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_sym(Sym::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
            } else {
                let cname = self.ident()?;
                let ty = self.column_type()?;
                let default = if self.eat_kw("DEFAULT") {
                    Some(self.literal()?)
                } else {
                    None
                };
                columns.push(ColumnAst {
                    name: cname,
                    ty,
                    default,
                });
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        let ttl = if self.eat_kw("TTL") {
            match self.next()? {
                Token::Str(s) => Some(parse_duration(&s)?),
                t => return Err(Error::invalid(format!("expected TTL duration, got {t:?}"))),
            }
        } else {
            None
        };
        if primary_key.is_empty() {
            return Err(Error::invalid("CREATE TABLE requires PRIMARY KEY (...)"));
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            ttl,
        })
    }

    /// `CREATE ROLLUP r ON t PERIOD '1h' [AGGREGATE (a, b)] [DISTINCT (c)]`
    /// (the `CREATE ROLLUP` keywords are already consumed).
    fn create_rollup(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let base = self.ident()?;
        self.expect_kw("PERIOD")?;
        let period_micros = match self.next()? {
            Token::Str(s) => parse_duration(&s)?,
            t => {
                return Err(Error::invalid(format!(
                    "expected PERIOD duration, got {t:?}"
                )))
            }
        };
        let value_cols = if self.eat_kw("AGGREGATE") {
            self.paren_ident_list()?
        } else {
            Vec::new()
        };
        let distinct_cols = if self.eat_kw("DISTINCT") {
            self.paren_ident_list()?
        } else {
            Vec::new()
        };
        Ok(Statement::CreateRollup {
            name,
            base,
            period_micros,
            value_cols,
            distinct_cols,
        })
    }

    fn paren_ident_list(&mut self) -> Result<Vec<String>> {
        self.expect_sym(Sym::LParen)?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(cols)
    }

    fn alter(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        if self.eat_kw("ADD") {
            self.expect_kw("COLUMN")?;
            let cname = self.ident()?;
            let ty = self.column_type()?;
            let default = if self.eat_kw("DEFAULT") {
                Some(self.literal()?)
            } else {
                None
            };
            Ok(Statement::AlterAddColumn {
                name,
                column: ColumnAst {
                    name: cname,
                    ty,
                    default,
                },
            })
        } else if self.eat_kw("WIDEN") {
            self.expect_kw("COLUMN")?;
            Ok(Statement::AlterWidenColumn {
                name,
                column: self.ident()?,
            })
        } else if self.eat_kw("SET") {
            self.expect_kw("TTL")?;
            if self.eat_kw("NONE") {
                Ok(Statement::AlterSetTtl { name, ttl: None })
            } else {
                match self.next()? {
                    Token::Str(s) => Ok(Statement::AlterSetTtl {
                        name,
                        ttl: Some(parse_duration(&s)?),
                    }),
                    t => Err(Error::invalid(format!("expected TTL duration, got {t:?}"))),
                }
            }
        } else {
            Err(Error::invalid(
                "ALTER TABLE supports ADD COLUMN, WIDEN COLUMN, and SET TTL",
            ))
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let name = self.ident()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            name,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<Select> {
        let mut items = Vec::new();
        loop {
            if self.eat_sym(Sym::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let name = self.ident()?;
                let func = match name.to_ascii_uppercase().as_str() {
                    "COUNT" => Some(AggFunc::Count),
                    "SUM" => Some(AggFunc::Sum),
                    "MIN" => Some(AggFunc::Min),
                    "MAX" => Some(AggFunc::Max),
                    "AVG" => Some(AggFunc::Avg),
                    _ => None,
                };
                match (func, self.peek()) {
                    (Some(func), Some(Token::Symbol(Sym::LParen))) => {
                        self.expect_sym(Sym::LParen)?;
                        let mut distinct = false;
                        let column = if self.eat_sym(Sym::Star) {
                            if func != AggFunc::Count {
                                return Err(Error::invalid("only COUNT accepts *"));
                            }
                            None
                        } else {
                            if self.eat_kw("DISTINCT") {
                                if func != AggFunc::Count {
                                    return Err(Error::invalid(
                                        "DISTINCT is only supported with COUNT",
                                    ));
                                }
                                distinct = true;
                            }
                            Some(self.ident()?)
                        };
                        self.expect_sym(Sym::RParen)?;
                        items.push(SelectItem::Aggregate {
                            func,
                            column,
                            distinct,
                        });
                    }
                    _ => items.push(SelectItem::Group(self.group_expr(name)?)),
                }
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let mut conditions = Vec::new();
        if self.eat_kw("WHERE") {
            loop {
                conditions.push(self.condition()?);
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                let name = self.ident()?;
                group_by.push(self.group_expr(name)?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        let mut order_desc = false;
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            if self.eat_kw("DESC") {
                order_desc = true;
            } else {
                self.eat_kw("ASC");
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                t => return Err(Error::invalid(format!("expected LIMIT count, got {t:?}"))),
            }
        } else {
            None
        };
        Ok(Select {
            items,
            table,
            conditions,
            group_by,
            order_desc,
            order_by,
            limit,
        })
    }

    /// The grouping expression that starts with the identifier `name`,
    /// already consumed: `TIME_BUCKET(col, INTERVAL '...')` when an
    /// argument list follows, else the column `name`.
    fn group_expr(&mut self, name: String) -> Result<GroupExpr> {
        if !name.eq_ignore_ascii_case("TIME_BUCKET") || !self.eat_sym(Sym::LParen) {
            return Ok(GroupExpr::Column(name));
        }
        let column = self.ident()?;
        self.expect_sym(Sym::Comma)?;
        let width_micros = self.interval()?;
        self.expect_sym(Sym::RParen)?;
        if width_micros <= 0 {
            return Err(Error::invalid("TIME_BUCKET width must be positive"));
        }
        Ok(GroupExpr::TimeBucket {
            column,
            width_micros,
        })
    }

    fn condition(&mut self) -> Result<Condition> {
        let column = self.ident()?;
        let op = match self.next()? {
            Token::Symbol(Sym::Eq) => PredOp::Eq,
            Token::Symbol(Sym::Ne) => PredOp::Ne,
            Token::Symbol(Sym::Lt) => PredOp::Lt,
            Token::Symbol(Sym::Le) => PredOp::Le,
            Token::Symbol(Sym::Gt) => PredOp::Gt,
            Token::Symbol(Sym::Ge) => PredOp::Ge,
            t => return Err(Error::invalid(format!("expected comparison, got {t:?}"))),
        };
        let literal = self.literal()?;
        Ok(Condition {
            column,
            op,
            literal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let stmt = parse(
            "CREATE TABLE usage (
                network INT64,
                device INT64,
                ts TIMESTAMP,
                bytes INT64 DEFAULT -1,
                note TEXT DEFAULT 'n/a',
                PRIMARY KEY (network, device, ts)
            ) TTL '390d';",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                ttl,
            } => {
                assert_eq!(name, "usage");
                assert_eq!(columns.len(), 5);
                assert_eq!(columns[3].default, Some(Literal::Int(-1)));
                assert_eq!(primary_key, vec!["network", "device", "ts"]);
                assert_eq!(ttl, Some(390 * 86_400 * 1_000_000));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_insert() {
        let stmt = parse(
            "INSERT INTO usage (network, device, ts, bytes) \
             VALUES (1, 2, NOW(), 100), (1, 3, NOW() - INTERVAL '1m', 200)",
        )
        .unwrap();
        match stmt {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns.unwrap().len(), 4);
                assert_eq!(rows.len(), 2);
                assert_eq!(
                    rows[1][2],
                    Literal::Now {
                        offset_micros: -60_000_000
                    }
                );
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_select_with_everything() {
        let stmt = parse(
            "SELECT device, SUM(bytes), COUNT(*) FROM usage \
             WHERE network = 7 AND ts >= NOW() - INTERVAL '1w' AND ts < NOW() \
             GROUP BY device ORDER BY network, device DESC LIMIT 100",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.items.len(), 3);
                assert_eq!(s.conditions.len(), 3);
                assert_eq!(s.group_by, vec![GroupExpr::Column("device".into())]);
                assert!(s.order_desc);
                assert_eq!(s.limit, Some(100));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_time_bucket() {
        let stmt = parse(
            "SELECT TIME_BUCKET(ts, INTERVAL '1h'), COUNT(*) FROM usage \
             GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(
                    s.items[0],
                    SelectItem::Group(GroupExpr::TimeBucket {
                        column: "ts".into(),
                        width_micros: 3_600_000_000
                    })
                );
                assert_eq!(
                    s.group_by,
                    vec![GroupExpr::TimeBucket {
                        column: "ts".into(),
                        width_micros: 3_600_000_000
                    }]
                );
            }
            s => panic!("unexpected {s:?}"),
        }
        // A column named time_bucket without parens is still a column.
        let stmt = parse("SELECT time_bucket FROM t").unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(
                    s.items[0],
                    SelectItem::Group(GroupExpr::Column("time_bucket".into()))
                );
            }
            s => panic!("unexpected {s:?}"),
        }
        assert!(parse("SELECT TIME_BUCKET(ts) FROM t").is_err());
        assert!(parse("SELECT TIME_BUCKET(ts, INTERVAL '0s') FROM t").is_err());
    }

    #[test]
    fn parses_alter_variants() {
        assert!(matches!(
            parse("ALTER TABLE t ADD COLUMN x INT64 DEFAULT 0").unwrap(),
            Statement::AlterAddColumn { .. }
        ));
        assert!(matches!(
            parse("ALTER TABLE t WIDEN COLUMN x").unwrap(),
            Statement::AlterWidenColumn { .. }
        ));
        assert_eq!(
            parse("ALTER TABLE t SET TTL '1h'").unwrap(),
            Statement::AlterSetTtl {
                name: "t".into(),
                ttl: Some(3_600_000_000)
            }
        );
        assert_eq!(
            parse("ALTER TABLE t SET TTL NONE").unwrap(),
            Statement::AlterSetTtl {
                name: "t".into(),
                ttl: None
            }
        );
    }

    #[test]
    fn parses_create_and_drop_rollup() {
        assert_eq!(
            parse("CREATE ROLLUP usage_1h ON usage PERIOD '1h' AGGREGATE (bytes, load) DISTINCT (device)").unwrap(),
            Statement::CreateRollup {
                name: "usage_1h".into(),
                base: "usage".into(),
                period_micros: 3_600_000_000,
                value_cols: vec!["bytes".into(), "load".into()],
                distinct_cols: vec!["device".into()],
            }
        );
        assert_eq!(
            parse("CREATE ROLLUP r ON t PERIOD '15m'").unwrap(),
            Statement::CreateRollup {
                name: "r".into(),
                base: "t".into(),
                period_micros: 900_000_000,
                value_cols: vec![],
                distinct_cols: vec![],
            }
        );
        assert_eq!(
            parse("DROP ROLLUP usage_1h").unwrap(),
            Statement::DropRollup {
                name: "usage_1h".into()
            }
        );
        assert!(parse("CREATE ROLLUP r ON t").is_err());
        assert!(parse("CREATE ROLLUP r ON t PERIOD '1h' AGGREGATE ()").is_err());
    }

    #[test]
    fn parses_count_distinct() {
        let stmt = parse("SELECT COUNT(DISTINCT device), COUNT(device) FROM usage").unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(
                    s.items[0],
                    SelectItem::Aggregate {
                        func: AggFunc::Count,
                        column: Some("device".into()),
                        distinct: true,
                    }
                );
                assert_eq!(
                    s.items[1],
                    SelectItem::Aggregate {
                        func: AggFunc::Count,
                        column: Some("device".into()),
                        distinct: false,
                    }
                );
            }
            s => panic!("unexpected {s:?}"),
        }
        assert!(parse("SELECT SUM(DISTINCT v) FROM t").is_err());
    }

    #[test]
    fn parses_misc() {
        assert_eq!(parse("SHOW TABLES").unwrap(), Statement::ShowTables);
        assert_eq!(
            parse("DESCRIBE t;").unwrap(),
            Statement::Describe { name: "t".into() }
        );
        assert!(matches!(
            parse("DROP TABLE old").unwrap(),
            Statement::DropTable { .. }
        ));
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("CREATE TABLE t (a INT64)").is_err()); // no PK
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t WHERE a LIKE 'x'").is_err());
        assert!(parse("SELECT * FROM t; garbage").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("250us").unwrap(), 250);
        assert_eq!(parse_duration("20ms").unwrap(), 20_000);
        assert_eq!(parse_duration("30s").unwrap(), 30_000_000);
        assert_eq!(parse_duration("2m").unwrap(), 120_000_000);
        assert_eq!(parse_duration("1h").unwrap(), 3_600_000_000);
        assert_eq!(parse_duration("1d").unwrap(), 86_400_000_000);
        assert_eq!(parse_duration("2w").unwrap(), 1_209_600_000_000);
        assert!(parse_duration("5x").is_err());
        assert!(parse_duration("h").is_err());
        assert!(parse_duration("").is_err());
        assert_eq!(
            parse_duration("15250284w").unwrap(),
            15_250_284 * 604_800_000_000
        );
        assert!(parse_duration("15250285w").is_err());
        assert!(parse_duration("10000000000000w").is_err());
    }
}
