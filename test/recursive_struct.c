struct A { struct A a; };
int main(void) { return 0; }
