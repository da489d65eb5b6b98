#include "rcs/script/parser.hpp"

#include <map>
#include <mutex>
#include <string>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/script/lexer.hpp"

namespace rcs::script {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Script parse_script() {
    Script script;
    if (peek().kind == TokenKind::kKeyword && peek().text == "script") {
      advance();
      script.name = expect(TokenKind::kIdent, "script name").text;
      expect(TokenKind::kLBrace, "'{' after script name");
      script.statements = parse_statements_until(TokenKind::kRBrace);
      expect(TokenKind::kRBrace, "'}' closing script body");
    } else {
      script.statements = parse_statements_until(TokenKind::kEnd);
    }
    expect(TokenKind::kEnd, "end of script");
    return script;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ScriptException(strf("parse error (line ", peek().line, "): ",
                               message, ", got ", to_string(peek().kind),
                               peek().text.empty() ? "" : strf(" '", peek().text, "'")));
  }

  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }

  bool match(TokenKind kind) {
    if (peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  const Token& expect(TokenKind kind, const std::string& what) {
    if (peek().kind != kind) fail(strf("expected ", what));
    return advance();
  }

  bool at_keyword(const char* word) const {
    return peek().kind == TokenKind::kKeyword && peek().text == word;
  }

  std::vector<StmtPtr> parse_statements_until(TokenKind stop) {
    std::vector<StmtPtr> statements;
    while (peek().kind != stop && peek().kind != TokenKind::kEnd) {
      statements.push_back(parse_statement());
    }
    return statements;
  }

  std::vector<StmtPtr> parse_block() {
    expect(TokenKind::kLBrace, "'{'");
    auto body = parse_statements_until(TokenKind::kRBrace);
    expect(TokenKind::kRBrace, "'}'");
    return body;
  }

  StmtPtr parse_statement() {
    const int line = peek().line;
    if (at_keyword("if")) return parse_if();
    if (at_keyword("let")) {
      advance();
      auto name = expect(TokenKind::kIdent, "variable name").text;
      expect(TokenKind::kAssign, "'=' in let binding");
      auto expr = parse_expr();
      expect(TokenKind::kSemicolon, "';' after let binding");
      auto stmt = std::make_unique<Stmt>();
      stmt->line = line;
      stmt->node = LetStmt{std::move(name), std::move(expr)};
      return stmt;
    }
    if (at_keyword("require")) {
      advance();
      auto condition = parse_expr();
      expect(TokenKind::kSemicolon, "';' after require");
      auto stmt = std::make_unique<Stmt>();
      stmt->line = line;
      stmt->node = RequireStmt{std::move(condition)};
      return stmt;
    }
    // Verb statement: ident(args);
    const auto verb = expect(TokenKind::kIdent, "statement").text;
    expect(TokenKind::kLParen, strf("'(' after verb '", verb, "'"));
    auto args = parse_args();
    expect(TokenKind::kRParen, "')' closing argument list");
    expect(TokenKind::kSemicolon, strf("';' after ", verb, "(...)"));
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    stmt->node = VerbStmt{verb, std::move(args)};
    return stmt;
  }

  StmtPtr parse_if() {
    const int line = peek().line;
    advance();  // 'if'
    expect(TokenKind::kLParen, "'(' after if");
    auto condition = parse_expr();
    expect(TokenKind::kRParen, "')' closing if condition");
    auto then_body = parse_block();
    std::vector<StmtPtr> else_body;
    if (at_keyword("else")) {
      advance();
      if (at_keyword("if")) {
        else_body.push_back(parse_if());
      } else {
        else_body = parse_block();
      }
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    stmt->node =
        IfStmt{std::move(condition), std::move(then_body), std::move(else_body)};
    return stmt;
  }

  std::vector<ExprPtr> parse_args() {
    std::vector<ExprPtr> args;
    if (peek().kind == TokenKind::kRParen) return args;
    args.push_back(parse_expr());
    while (match(TokenKind::kComma)) args.push_back(parse_expr());
    return args;
  }

  // expr := and ('||' and)*
  ExprPtr parse_expr() {
    auto lhs = parse_and();
    while (peek().kind == TokenKind::kOr) {
      const int line = advance().line;
      auto rhs = parse_and();
      lhs = make_binary(line, BinaryExpr::Op::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_and() {
    auto lhs = parse_equality();
    while (peek().kind == TokenKind::kAnd) {
      const int line = advance().line;
      auto rhs = parse_equality();
      lhs = make_binary(line, BinaryExpr::Op::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    auto lhs = parse_unary();
    while (peek().kind == TokenKind::kEq || peek().kind == TokenKind::kNeq) {
      const auto op = peek().kind == TokenKind::kEq ? BinaryExpr::Op::kEq
                                                    : BinaryExpr::Op::kNeq;
      const int line = advance().line;
      auto rhs = parse_unary();
      lhs = make_binary(line, op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (peek().kind == TokenKind::kNot) {
      const int line = advance().line;
      auto operand = parse_unary();
      auto expr = std::make_unique<Expr>();
      expr->line = line;
      expr->node = NotExpr{std::move(operand)};
      return expr;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& token = peek();
    auto expr = std::make_unique<Expr>();
    expr->line = token.line;
    switch (token.kind) {
      case TokenKind::kString:
      case TokenKind::kInt:
      case TokenKind::kFloat:
        expr->node = LiteralExpr{token.literal};
        advance();
        return expr;
      case TokenKind::kKeyword:
        if (token.text == "true") {
          expr->node = LiteralExpr{Value(true)};
          advance();
          return expr;
        }
        if (token.text == "false") {
          expr->node = LiteralExpr{Value(false)};
          advance();
          return expr;
        }
        if (token.text == "null") {
          expr->node = LiteralExpr{Value{}};
          advance();
          return expr;
        }
        fail("unexpected keyword in expression");
      case TokenKind::kIdent: {
        const std::string name = advance().text;
        if (match(TokenKind::kLParen)) {
          auto args = parse_args();
          expect(TokenKind::kRParen, "')' closing call");
          expr->node = CallExpr{name, std::move(args)};
        } else {
          expr->node = VarExpr{name};
        }
        return expr;
      }
      case TokenKind::kLParen: {
        advance();
        auto inner = parse_expr();
        expect(TokenKind::kRParen, "')'");
        return inner;
      }
      default:
        fail("expected expression");
    }
  }

  static ExprPtr make_binary(int line, BinaryExpr::Op op, ExprPtr lhs, ExprPtr rhs) {
    auto expr = std::make_unique<Expr>();
    expr->line = line;
    expr->node = BinaryExpr{op, std::move(lhs), std::move(rhs)};
    return expr;
  }

  std::vector<Token> tokens_;
  std::size_t pos_{0};
};

}  // namespace

Script parse(std::string_view source) {
  return Parser(tokenize(source)).parse_script();
}

std::shared_ptr<const Script> parse_shared(std::string_view source) {
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const Script>, std::less<>> scripts;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = scripts.find(source); it != scripts.end()) return it->second;
  }
  // Parsed outside the lock; a throw leaves the table as it was.
  auto script = std::make_shared<const Script>(parse(source));
  const std::lock_guard<std::mutex> lock(mutex);
  return scripts.try_emplace(std::string(source), std::move(script)).first->second;
}

}  // namespace rcs::script
